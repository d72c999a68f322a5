"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
from workloads import WORKLOADS, Tally, Workload, check_outputs

import affconn.dual
import affconn.spectral
import affconn.suite

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(config):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("call.run_suite", adopt=True):
            report = affconn.suite.run_suite(config)
    finally:
        unrestored = tracer.uninstall()
    assert unrestored == []
    return affconn.suite.report_json(report), tracer


def test_wrappers_leave_the_report_unchanged_and_are_removed():
    config = {"scenarios": ["disk-flat", "s2-classical"], "workers": 2}
    originals = (affconn.suite.assemble, affconn.spectral.eigenvalues,
                 affconn.dual.Dual.__init__,
                 affconn.suite.CHECKS["eigenvalue"][0])
    traced, tracer = _traced(config)
    assert traced == affconn.suite.report_json(affconn.suite.run_suite(config))
    assert (affconn.suite.assemble, affconn.spectral.eigenvalues,
            affconn.dual.Dual.__init__,
            affconn.suite.CHECKS["eigenvalue"][0]) == originals
    # Every span hangs off the call span, including those of pool threads.
    ids = {s.id for s in tracer.spans}
    assert all(s.parent in ids for s in tracer.spans
               if s.name != "call.run_suite")
    layers = tracer.metrics(workers=2)
    assert layers["suite.check.harmonic-extension.calls"] == 1
    assert layers["spectral.harmonic_extension_2d.calls"] == 2
    assert 0 < layers["suite.pool.efficiency"] <= 1.0


@pytest.mark.parametrize("name, created, eig_calls, eig_distinct", [
    ("verify-all", 658410, 8, 2),
    ("verify-pointwise", 519240, 0, 0),
])
def test_exact_counts_repeat_across_traced_runs(name, created, eig_calls,
                                                eig_distinct):
    config = WORKLOADS[name].calls(seed=0)[0]["config"]
    counts = []
    for _ in range(2):
        _, tracer = _traced(config)
        layers = tracer.metrics(workers=1)
        counts.append({k: v for k, v in layers.items()
                       if not k.endswith("_s") and k != "suite.pool.efficiency"})
    assert counts[0] == counts[1]
    assert counts[0]["dual.Dual.created"] == created
    assert counts[0]["spectral.eigenvalues.calls"] == eig_calls
    assert counts[0]["spectral.eigenvalues.distinct"] == eig_distinct


def test_fingerprint_tells_content_not_identity():
    from affconn.scenarios import get_scenario
    scn = get_scenario("s2-weighted-quadratic")
    other = get_scenario("s2-wylie-yeroshkin")
    fp = layertrace.fingerprint
    assert scn.manifold() is not scn.manifold()
    assert fp(scn.manifold()) == fp(scn.manifold())
    assert fp(scn.manifold()) != fp(other.manifold())
    assert fp(scn.mesh()) == fp(get_scenario("s2-classical").mesh())


def test_smoke_one_scenario_traced_in_a_child(tmp_path):
    calls = [{"api": "run_suite", "config": {"scenarios": ["disk-flat"]},
              "checks": sorted(layertrace.CHECK_IDS),
              "scenarios": ["disk-flat"]}]
    smoke = Workload("smoke", "", 1, lambda rng: calls)
    result = run.Runner(ROOT, smoke, seed=0).child(
        calls, trace_path=tmp_path / "spans.json")
    tally = Tally()
    check_outputs(tally, calls, result["outputs"],
                  result["outputs"]["digest"])
    assert (tally.failed, tally.attempted) == (0, 10)
    assert result["unrestored"] == []
    # The parent adds the tracing overhead, measured against untraced runs.
    assert set(result["layers"]) | {layertrace.OVERHEAD} == {
        m["name"] for m in SPEC["per_layer"]}
    assert result["machine"]["numpy_blas"]["threads"] in (1, None)
    tree = json.loads((tmp_path / "spans.json").read_text())
    names = {s["id"]: s["name"] for s in tree["spans"]}
    assert {s["run_id"] for s in tree["spans"]} == {tree["run_id"]}
    check = next(s for s in tree["spans"]
                 if s["name"] == "suite.check.harmonic-extension")
    call = next(s for s in tree["spans"] if s["id"] == check["parent"])
    assert (call["name"], names[call["parent"]]) == ("call.run_suite",
                                                     "workload.smoke")
    assert any(names.get(s["parent"]) == "suite.check.harmonic-extension"
               for s in tree["spans"])


def test_benchmark_json_matches_the_code():
    # verify-pointwise and converge-ladder are run by hand; see README.md.
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
        if w.name in ("verify-all", "verify-all-2w")]
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == layertrace.metric_units()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:],
                           "--workload", "verify-all", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
