"""One repetition of a benchmark workload, in a fresh Python process.

Usage: ``python3 perfbench/child.py SPEC`` where SPEC is a JSON object with
``launch`` (the parent's CLOCK_MONOTONIC reading just before it started
this process), ``calls`` (omit to only import affconn), and optionally
``trace_path`` to record the per-layer trace and write the span tree there.
Prints one JSON object on standard output.
"""

import contextlib
import hashlib
import json
import resource
import sys
import time

import machine


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _no_span(name, adopt=False):
    return contextlib.nullcontext()


def _call(call):
    if call["api"] == "run_suite":
        report = affconn.suite.run_suite(call["config"])
        text = affconn.suite.report_json(report)
        records = [[r["scenario"], r["check"], r["passed"]]
                   for r in json.loads(text)["records"]]
        return {"records": records}, text
    rows = affconn.suite.convergence_rows(call["scenario"], call["check"],
                                          call["levels"])
    return {"rows": rows}, json.dumps(rows)


def run(spec, setup_s):
    calls = spec.get("calls")
    result = {"setup_s": setup_s, "affconn_file": affconn.__file__}
    if calls is None:
        return result
    tracer, span = None, _no_span
    if spec.get("trace_path"):
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        span = tracer.span
    outputs, texts = [], []
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    with span(f"workload.{spec['workload']}"):
        for call in calls:
            with span(f"call.{call['api']}", adopt=True):
                out, text = _call(call)
            outputs.append(out)
            texts.append(text)
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_mb,
                  outputs={"calls": outputs, "digest": digest},
                  machine=machine.facts())
    if tracer is not None:
        result["unrestored"] = tracer.uninstall()
        result["layers"] = tracer.metrics(spec["workers"])
        result["layer_units"] = {name: unit for name, (unit, _) in
                                 layertrace.metric_units().items()}
        tracer.dump(spec["trace_path"], workload=spec["workload"],
                    seed=spec["seed"], wall_s=wall, machine=result["machine"])
    return result


if __name__ == "__main__":
    SPEC = json.loads(sys.argv[1])
    import affconn  # the import is what setup_s measures
    import affconn.suite
    SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - SPEC["launch"]
    sys.stdout.write(json.dumps(run(SPEC, SETUP_S)) + "\n")
