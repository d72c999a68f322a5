"""Which checks raise the peak memory of a default ``affconn verify`` run.

Runs ``suite._run_one`` over the default tasks, in report order and in this
one process, and prints each (scenario, check) after which the process's
peak resident memory (``ru_maxrss``) went up, with the new peak in MB.  The
first line is the peak after importing affconn.  The tasks run in one
worker thread, as ``run_suite`` runs them at 1 worker: a thread allocates
from its own malloc arena, so the main thread would show other peaks.
pytest does not collect this file; run it from the root of a checkout as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/rss_by_check.py
"""

import resource
from concurrent.futures import ThreadPoolExecutor

from affconn import suite
from affconn.scenarios import get_scenario


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_tasks():
    cfg = suite.normalize_config({})
    peak = peak_mb()
    print(f"import {peak:.1f} MB")
    for scenario in cfg["scenarios"]:
        for check in cfg["checks"]:
            if not suite.applies(check, get_scenario(scenario)):
                continue
            suite._run_one(scenario, check)
            if peak_mb() > peak:
                peak = peak_mb()
                print(f"{scenario} {check} {peak:.1f} MB")


if __name__ == "__main__":
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(run_tasks).result()
