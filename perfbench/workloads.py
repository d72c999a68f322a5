"""Workload definitions and output checks for the affconn benchmark.

A workload is a closed-loop client: one repetition sends its calls to the
public API one after the other, each only after the previous one returned.
Every input comes from the fixed, Halton-based scenario registry, so the
seed can only change the order of things whose order must not matter: the
order of the calls in a repetition and the order of the lists in a config.

This module imports nothing from affconn, so the parent process stays
light and the expected outputs below are independent of the code under test.
"""

import math
import random
from dataclasses import dataclass

POINTWISE_CHECKS = ["torsion", "duality", "statistical", "equiaffine",
                    "ricci-symmetry", "curvature-oracles", "curvature-bound",
                    "d-minimal", "reilly"]

_ALL_SCENARIOS = ["disk-flat", "euclidean-flat", "s2-classical",
                  "s2-generic", "s2-hemisphere-weighted", "s2-substatic",
                  "s2-weighted-quadratic", "s2-wylie-yeroshkin",
                  "s3-classical"]
_HYPERSURFACE = ["s2-classical", "s2-substatic", "s2-weighted-quadratic",
                 "s3-classical"]

# Scenarios each check must report on: the expected record set.
_EXPECTED_BY_CHECK = {
    "torsion": _ALL_SCENARIOS,
    "duality": _ALL_SCENARIOS,
    "statistical": _ALL_SCENARIOS,
    "equiaffine": _ALL_SCENARIOS,
    "ricci-symmetry": _ALL_SCENARIOS,
    "curvature-oracles": _ALL_SCENARIOS,
    "curvature-bound": _ALL_SCENARIOS,
    "d-minimal": _HYPERSURFACE,
    "eigenvalue": _HYPERSURFACE,
    "choi-wang": _HYPERSURFACE,
    "reilly": ["disk-flat", "s2-classical", "s2-hemisphere-weighted"],
    "harmonic-extension": ["disk-flat"],
    "proof-inequality": ["s2-classical", "s2-weighted-quadratic"],
}


def expected_records(checks, scenarios):
    """The (scenario, check) pairs a suite run must yield."""
    return {(s, c) for c in checks for s in _EXPECTED_BY_CHECK[c]
            if s in scenarios}


# Refinement ladders of converge-ladder: (scenario, levels, reference).
LADDERS = [("s2-classical", list(range(3, 9)), 1.0),
           ("s3-classical", list(range(2, 6)), 2.0)]
ORDER_TOLERANCE = 0.1   # the observed order must lie within 2 +- this


@dataclass(frozen=True)
class Workload:
    """A named closed-loop client: the calls of one repetition."""

    name: str
    why: str
    workers: int
    make_calls: object    # random.Random -> list of call specs

    def calls(self, seed):
        """The calls of one repetition; the seed only reorders them."""
        return self.make_calls(random.Random(seed))


def _suite_calls(workers, checks=None):
    def make(rng):
        if checks is None:
            config = {"workers": workers} if workers != 1 else {}
        else:
            scenarios = list(_ALL_SCENARIOS)
            chosen = list(checks)
            rng.shuffle(scenarios)
            rng.shuffle(chosen)
            config = {"scenarios": scenarios, "checks": chosen,
                      "workers": workers}
        return [{"api": "run_suite", "config": config,
                 "checks": sorted(checks or _EXPECTED_BY_CHECK),
                 "scenarios": _ALL_SCENARIOS}]
    return make


def _ladder_calls(rng):
    calls = [{"api": "convergence_rows", "scenario": name,
              "check": "eigenvalue", "levels": levels}
             for name, levels, _ in LADDERS]
    rng.shuffle(calls)
    return calls


WORKLOADS = {w.name: w for w in [
    Workload("verify-all",
             "affconn verify as shipped: all 13 checks at 1 worker; shared "
             "results are recomputed, so memoisation and solver changes show",
             1, _suite_calls(1)),
    Workload("verify-all-2w",
             "the same suite at 2 workers, the only user of the thread pool; "
             "its report must equal the 1-worker report byte for byte",
             2, _suite_calls(2)),
    Workload("verify-pointwise",
             "the 9 checks without meshes or eigensolves, so dual-number AD, "
             "connections, curvature and operators do all the work",
             1, _suite_calls(1, POINTWISE_CHECKS)),
    Workload("converge-ladder",
             "eigenvalue refinement on circles and icospheres, 128 to 10,242 "
             "vertices, on both sides of the dense/shift-invert cutoff",
             1, _ladder_calls),
]}


class Tally:
    """Attempted and failed output counts with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


def check_outputs(tally, calls, outputs, reference_digest):
    """Check one repetition's outputs against the expected results.

    ``outputs`` holds one entry per call, in call order, and a ``digest``
    over all of them; a repetition whose digest differs from
    ``reference_digest`` fails one output.
    """
    if len(outputs["calls"]) != len(calls):
        tally.check(False, f"{len(outputs['calls'])} call results for "
                           f"{len(calls)} calls")
        return
    for call, out in zip(calls, outputs["calls"]):
        if call["api"] == "run_suite":
            _check_suite(tally, call, out)
        else:
            _check_ladder(tally, call, out)
    tally.check(outputs["digest"] == reference_digest,
                f"digest {outputs['digest'][:12]} differs from "
                f"{reference_digest[:12]}")


def _check_suite(tally, call, out):
    expected = expected_records(call["checks"], call["scenarios"])
    seen = {}
    for scenario, check, passed in out["records"]:
        seen[(scenario, check)] = passed
    for key in sorted(expected):
        tally.check(seen.get(key) is True,
                    f"record {key} " + ("missing" if key not in seen
                                        else "did not pass"))
    for key in sorted(set(seen) - expected):
        tally.check(False, f"unexpected record {key}")


def _check_ladder(tally, call, out):
    reference = {name: ref for name, _, ref in LADDERS}[call["scenario"]]
    rows = out["rows"]
    for i, level in enumerate(call["levels"]):
        where = f"{call['scenario']} level {level}"
        if i >= len(rows):
            tally.check(False, f"{where}: row missing")
            continue
        row_level, _h, value, error, order = rows[i]
        ok = (row_level == level and math.isfinite(value)
              and math.isfinite(error) and error > 0
              and abs(abs(value - reference) - error) <= 1e-12 * reference)
        if i > 0:
            ok = (ok and error < rows[i - 1][3]
                  and isinstance(order, float)
                  and abs(order - 2.0) <= ORDER_TOLERANCE)
        tally.check(ok, f"{where}: row {rows[i]} fails its check")
    for extra in rows[len(call["levels"]):]:
        tally.check(False, f"{call['scenario']}: unexpected row {extra}")
