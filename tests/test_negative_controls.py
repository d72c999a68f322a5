"""Negative controls: a NaN at a non-first sample fails the record.

Each case replaces the engine function that a check calls with one that
returns NaN on a later call, runs the check through ``run_suite``, and
expects ``"passed": false``.  A record keeps its values, so the report
shows the NaN.  A Reilly residual that grows on the refinement ladder's
finest grid, and a curvature scan that finds K <= 0, fail their records
the same way.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from affconn import operators, suite
from affconn.dual import Dual
from affconn.scenarios import _REGISTRY
from affconn.suite import report_json, run_suite


def nan_array(out):
    return np.full_like(out, np.nan)


def nan_float(out):
    return math.nan


def nan_residual(out):
    return dataclasses.replace(out, residual=math.nan)


def nan_second_order(rows):
    return [*rows[:2], [*rows[2][:4], math.nan], *rows[3:]]


def grown_residual(out):
    return dataclasses.replace(out, residual=100.0 * out.residual)


def poison(monkeypatch, owner, name, call, spoil):
    """Make ``owner.name`` return ``spoil(result)`` on call number ``call``
    (counted from 1) and its own result on every other call."""
    original = getattr(owner, name)
    calls = [0]

    def spoiled(*args, **kwargs):
        calls[0] += 1
        out = original(*args, **kwargs)
        return spoil(out) if calls[0] == call else out
    monkeypatch.setattr(owner, name, spoiled)
    return calls


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_record(scenario, check):
    report = run_suite({"scenarios": [scenario], "checks": [check]})
    # A NaN record still serializes, as strict JSON.
    json.loads(report_json(report), parse_constant=refuse_constant)
    (record,) = report["records"]
    return record


# (scenario, check, owner, engine function, poisoned call, spoil, value key)
CASES = [
    ("s2-generic", "torsion", suite, "connection_coeffs", 5, nan_array,
     "max_asymmetry"),
    ("s2-generic", "duality", suite, "duality_residual", 7, nan_float,
     "max_residual"),
    ("s2-generic", "statistical", suite, "amari_chentsov_closed_form", 5,
     nan_array, "closed_form_gap"),
    ("s2-generic", "equiaffine", suite, "equiaffine_residual", 5, nan_float,
     "max_residual"),
    # Calls 21 and 22 are the probes at tau +- 0.1 after the 20 samples.
    ("s2-generic", "equiaffine", suite, "equiaffine_residual", 22, nan_float,
     "shifted_exponent_residual"),
    ("s2-generic", "curvature-oracles", suite, "static_ricci", 5, nan_array,
     "static_gap"),
    ("s2-generic", "curvature-oracles", suite, "weighted_ricci", 5, nan_array,
     "one_weighted_gap"),
    ("s3-classical", "d-minimal", operators, "affine_mean_curvature", 100,
     nan_float, "max_affine_mean_curvature"),
    ("disk-flat", "reilly", suite, "reilly_residual", 2, nan_residual,
     "residual_radial-square"),
    ("s2-hemisphere-weighted", "reilly", suite, "_ladder", 1,
     nan_second_order, "refinement_orders"),
    # A NaN D-minimality residual fails the premise probe of the bound.
    ("s2-classical", "choi-wang", operators, "affine_mean_curvature", 5,
     nan_float, "d_minimal_residual"),
]


@pytest.mark.parametrize(
    "scenario,check,owner,name,call,spoil,key", CASES,
    ids=[f"{c[1]}-{c[3]}-{c[4]}" for c in CASES])
def test_nan_sample_fails_the_record(monkeypatch, scenario, check, owner,
                                     name, call, spoil, key):
    calls = poison(monkeypatch, owner, name, call, spoil)
    record = run_record(scenario, check)
    assert calls[0] >= call
    assert "error" not in record
    assert record["passed"] is False
    assert np.isnan(record["values"][key]).any()


def test_grown_finest_residual_fails_the_record(monkeypatch):
    # Call 1 is the reference quadrature; calls 2 to 4 are the ladder's
    # grids 8, 16 and 32.
    calls = poison(monkeypatch, suite, "reilly_residual", 4, grown_residual)
    record = run_record("s2-hemisphere-weighted", "reilly")
    assert calls[0] == 4
    assert "error" not in record
    assert record["passed"] is False
    orders = record["values"]["refinement_orders"]
    assert orders[0] >= 2.0 and orders[1] < 0.0


@pytest.mark.parametrize("scenario, check", [
    ("s2-classical", "choi-wang"), ("s2-classical", "proof-inequality")])
def test_nonpositive_k_fails_the_record(monkeypatch, scenario, check):
    calls = poison(monkeypatch, suite, "curvature_bound_scan", 1,
                   lambda out: dataclasses.replace(out, k_best=-1.0))
    record = run_record(scenario, check)
    assert calls[0] == 1
    assert "error" not in record
    assert record["passed"] is False
    assert record["values"]["k_best"] == -1.0


def test_non_finite_values_are_written_as_strict_json_strings():
    text = report_json({"values": [math.nan, np.inf, -np.inf, np.float64(np.nan)],
                        "orders": (1.5, math.inf)})
    assert json.loads(text, parse_constant=refuse_constant) == {
        "values": ["NaN", "Infinity", "-Infinity", "NaN"],
        "orders": [1.5, "Infinity"]}


def nan_at(hyp, point):
    """``hyp`` with its embedding NaN, value and derivatives, where the
    first parameter is ``point`` and unchanged elsewhere."""
    def embedding(s):
        t = s[0]
        while type(t) is Dual:
            t = t.a
        factor = math.nan if t == point else 1.0
        return [factor * c for c in hyp.embedding(s)]
    return dataclasses.replace(hyp, embedding=embedding)


# One NaN point of a hypersurface is an error record of the checks that
# read it, not an exception that ends the run.
def test_nan_embedding_point_is_an_error_record(monkeypatch):
    scn = _REGISTRY["s2-classical"]
    point = operators._param_grid(scn.hypersurface())[5, 0]
    monkeypatch.setitem(_REGISTRY, scn.name, dataclasses.replace(
        scn, hypersurface_factory=lambda man: nan_at(
            scn.hypersurface_factory(man), point)))
    report = run_suite({"scenarios": ["s2-classical", "s2-substatic"],
                        "checks": ["curvature-bound", "d-minimal",
                                   "choi-wang"]})
    errors = {(r["scenario"], r["check"]): r["error"]
              for r in report["records"] if "error" in r}
    assert len(report["records"]) == 6
    assert errors.keys() == {("s2-classical", "d-minimal"),
                             ("s2-classical", "choi-wang")}
    assert all(e.startswith("DegenerateJacobian") for e in errors.values())
    assert all(r["passed"] for r in report["records"] if "error" not in r)
