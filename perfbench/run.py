"""The affconn benchmark: one closed-loop client per workload, each
repetition in a fresh Python process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 60 \\
        --trace 0

With ``--trace 0`` it reports the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` one traced repetition gives the per-layer
metrics and untraced ones give the tracing overhead.  Human-readable lines
come first; the last line of standard output is the JSON result.  Every
repetition's outputs are checked, and the span tree of a traced run is
written under ``.bench_build/perfbench/``.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Tally, check_outputs

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
MIN_REPS = 3          # timed repetitions per run, at least
SETUP_SAMPLES = 7     # setup_s is the median of at least this many launches
RUN_LIMIT_S = 170     # a run never takes longer than this
TRACE_OUT = Path(".bench_build") / "perfbench"
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark could not produce a measurement."""


def child_env(root):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return env


class Runner:
    """Starts children one at a time and keeps every result they print."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.env = child_env(root)
        self.started = time.monotonic()
        self.results = []     # every child that imported affconn

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, calls=None, workers=None, trace_path=None):
        spec = {"workload": self.workload.name, "seed": self.seed,
                "workers": workers or self.workload.workers,
                "trace_path": trace_path and str(trace_path)}
        if calls is not None:
            spec["calls"] = calls
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise HarnessError(f"run exceeded {RUN_LIMIT_S} s")
        spec["launch"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"child exceeded the {RUN_LIMIT_S} s run limit")
        if proc.returncode != 0:
            raise HarnessError(f"child exited with {proc.returncode}:\n"
                               + err[-4000:])
        result = json.loads(out.splitlines()[-1])
        source = Path(result["affconn_file"]).resolve()
        if not source.is_relative_to(self.root / "src" / "affconn"):
            raise HarnessError(f"affconn imported from {source}, not from "
                               "this checkout")
        result["calls"] = calls
        self.results.append(result)
        return result

    def repeat(self, calls, seconds, minimum):
        """Closed loop: the next repetition starts when the last returned,
        while another one fits into ``seconds``."""
        reps, longest = [], 0.0
        while len(reps) < minimum or self.elapsed() + longest <= seconds:
            t0 = self.elapsed()
            reps.append(self.child(calls))
            longest = max(longest, self.elapsed() - t0)
        return reps

    def setup_samples(self):
        while len(self.results) < SETUP_SAMPLES:
            self.child()
        return [r["setup_s"] for r in self.results]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(root, workload, seed, seconds, traced):
    runner = Runner(root, workload, seed)
    calls = workload.calls(seed)
    runner.child()                      # fills bytecode and page caches
    runner.results.clear()
    reference = None
    if workload.workers > 1:
        # The report must not depend on the worker count.
        reference = runner.child(WORKLOADS["verify-all"].calls(seed),
                                 workers=1)
    traced_rep = None
    if traced:
        TRACE_OUT.mkdir(parents=True, exist_ok=True)
        path = TRACE_OUT / f"trace-{workload.name}-seed{seed}.json"
        traced_rep = runner.child(calls, trace_path=path)
    reps = runner.repeat(calls, seconds, 1 if traced else MIN_REPS)
    setup = runner.setup_samples()

    tally = Tally()
    ref_digest = (reference or reps[0])["outputs"]["digest"]
    for rep in reps + [r for r in (reference, traced_rep) if r]:
        check_outputs(tally, rep["calls"], rep["outputs"], ref_digest)
        blas = rep["machine"]
        tally.check(blas["numpy_blas"]["threads"] in (1, None)
                    and blas["scipy_blas"]["threads"] in (1, None),
                    f"BLAS ran with more than one thread: {blas}")
    if traced_rep:
        tally.check(not traced_rep["unrestored"],
                    f"wrappers left installed: {traced_rep['unrestored']}")

    walls = [r["wall_s"] for r in reps]
    samples = {"wall_s": walls, "cpu_s": [r["cpu_s"] for r in reps],
               "setup_s": setup,
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    print("# machine " + json.dumps(reps[0]["machine"]))
    print(f"# workload {workload.name}: {len(reps)} repetitions, "
          f"{len(setup)} launches, seed {seed}")
    for key, values in samples.items():
        lo, hi = _quartiles(values)
        print(f"# {key}: median {statistics.median(values):.4f} "
              f"quartiles {lo:.4f}..{hi:.4f} "
              f"min {min(values):.4f} max {max(values):.4f} n {len(values)}")
    print(f"# fail_share: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    for reason in tally.reasons[:20]:
        print(f"# FAILED {reason}")

    if traced:
        layers = dict(traced_rep["layers"])
        layers["trace.overhead_s"] = (traced_rep["wall_s"]
                                      - statistics.median(walls))
        print(f"# traced wall_s {traced_rep['wall_s']:.4f}; span tree "
              f"written to {path}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in traced_rep["layer_units"].items()}
    else:
        metrics = {key: {"value": statistics.median(values),
                         "unit": UNITS[key]}
                   for key, values in samples.items()}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "affconn" / "__init__.py").is_file():
        print("perfbench: run from the root of an affconn checkout "
              "(src/affconn not found)", file=sys.stderr)
        return 2
    try:
        result = measure(root, WORKLOADS[args.workload], args.seed,
                         args.seconds, args.trace == 1)
    except HarnessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
