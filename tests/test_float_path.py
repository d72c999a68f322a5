"""Point evaluations run on Python floats and give numpy's bits.

The public point functions take their point through
``ChartedManifold.point``, and a hypersurface parameter point through
``affine_mean_curvature``; both convert it with ``dual.floats`` in
``charts.checked_point``.  The
reference here is the numpy-scalar path: the same functions with that
conversion swapped for one that yields ``np.float64`` components, which
sends every elementary function and every operation through numpy.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affconn import dual
from affconn.charts import (WeightParams, height_weight, sphere3_chart,
                            sphere_chart)
from affconn.connections import (amari_chentsov, connection_coeffs,
                                 duality_residual, equiaffine_residual)
from affconn.curvature import ricci_tensor, static_ricci, weighted_ricci
from affconn.dual import Dual
from affconn.operators import (affine_mean_curvature, hess_D_generic,
                               lap_D_generic)
from affconn.scenarios import get_scenario
from affconn.suite import check_d_minimal, check_duality
from oracles import riemann_generic
from test_connections import linear_fields

S2 = sphere_chart(weight=height_weight(0.3))
S3 = dataclasses.replace(sphere3_chart(), weight=height_weight(0.2))
GENERIC = WeightParams(0.4, -0.2)


def phi(z):
    return dual.cos(z[0]) * z[-1] + z[0] * z[0]


# name -> (manifold, evaluation of a point).  The nested-list forms take
# their point through ``man.point`` as the report path does.
POINT_FUNCTIONS = {
    "connection_coeffs": (S2, lambda x: connection_coeffs(S2, GENERIC, x)),
    "riemann_tensor": (S3, lambda x: np.array(
        riemann_generic(S3, GENERIC, S3.point(x)), dtype=float)),
    "ricci_tensor": (S2, lambda x: ricci_tensor(S2, x, GENERIC)),
    "static_ricci": (S3, lambda x: static_ricci(S3, x)),
    "weighted_ricci": (S2, lambda x: weighted_ricci(
        S2, lambda z: -S2.weight(z), x)),
    "amari_chentsov": (S3, lambda x: amari_chentsov(S3, GENERIC, x)),
    "duality_residual": (S2, lambda x: duality_residual(
        S2, GENERIC, x, *linear_fields(2))),
    "equiaffine_residual": (S3, lambda x: equiaffine_residual(
        S3, GENERIC, x, linear_fields(3)[0])),
    "eval_metric": (S3, lambda x: np.array(S3.metric(S3.point(x)),
                                           dtype=float)),
    "hess_D": (S3, lambda x: np.array(
        hess_D_generic(S3, GENERIC, phi, S3.point(x)), dtype=float)),
    "lap_D": (S2, lambda x: lap_D_generic(S2, GENERIC, phi, S2.point(x))),
}


def numpy_scalars(x):
    return [np.float64(c) for c in x]


def numpy_scalar_path(evaluate, x):
    with mock.patch.object(dual, "floats", numpy_scalars):
        return evaluate(x)


def bits(out):
    return np.asarray(out, dtype=float).tobytes()


unit = st.floats(0.0, 1.0)


def admissible(man, t):
    return [lo + s * (hi - lo) for s, (lo, hi) in zip(t, man.admissible_box())]


@pytest.mark.parametrize("name", sorted(POINT_FUNCTIONS))
@given(t=st.lists(unit, min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_numpy_row_float_list_and_numpy_scalars_agree(name, t):
    man, evaluate = POINT_FUNCTIONS[name]
    x = admissible(man, t)
    row = np.array(x)
    out = evaluate(row)
    if np.ndim(out) == 0:  # a scalar point function returns a Python float
        assert type(out) is float
    got = bits(out)
    assert bits(evaluate([float(c) for c in x])) == got
    assert bits(numpy_scalar_path(evaluate, row)) == got


# Away from the ends, where the equatorial 2-sphere's chart degenerates.
@pytest.mark.parametrize("scenario", ["s2-weighted-quadratic", "s3-classical"])
@given(t=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2))
@settings(max_examples=25, deadline=None)
def test_affine_mean_curvature_on_floats(scenario, t):
    scn = get_scenario(scenario)
    hyp = scn.hypersurface()
    s = [lo + c * (hi - lo) for c, lo, hi in zip(t, hyp.lower, hyp.upper)]

    def evaluate(p):
        return affine_mean_curvature(hyp, scn.params, p)

    assert type(evaluate(np.array(s))) is float
    got = bits(evaluate(np.array(s)))
    assert bits(evaluate(s)) == got
    assert bits(numpy_scalar_path(evaluate, np.array(s))) == got


@pytest.mark.parametrize("fn", ["sin", "cos", "sqrt", "exp"])
@given(x=st.floats(-50.0, 50.0))
@settings(max_examples=300, deadline=None)
def test_elementary_functions_on_floats_give_numpy_bits(fn, x):
    if fn == "sqrt":
        x = abs(x)
    got = getattr(dual, fn)(x)
    assert type(got) is float
    assert got.hex() == float(getattr(np, fn)(np.float64(x))).hex()


def test_sqrt_of_a_negative_float_is_nan_as_in_numpy():
    with np.errstate(invalid="ignore"):
        assert np.isnan(dual.sqrt(-1.0))


def test_floats_returns_a_new_list_of_python_floats():
    row = np.array([0.5, 2.0])
    out = dual.floats(row)
    assert out == [0.5, 2.0]
    assert all(type(c) is float for c in out)


def test_suite_points_build_no_numpy_scalar_duals(monkeypatch):
    parts = []
    init = Dual.__init__

    def spy(self, a, b, lvl):
        parts.append((type(a), type(b)))
        init(self, a, b, lvl)

    monkeypatch.setattr(Dual, "__init__", spy)
    check_duality(get_scenario("s2-generic"))
    check_d_minimal(get_scenario("s2-classical"))
    assert len(parts) > 10000
    assert not any(np.float64 in pair for pair in parts)
