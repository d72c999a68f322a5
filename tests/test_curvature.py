"""Curvature tensors, independent oracles, and the bound scan."""

import numpy as np
import pytest
import scipy.linalg

from affconn.charts import (WeightParams, euclidean_chart, halton_points,
                            height_weight, sphere3_chart, sphere_chart)
from affconn.connections import LEVI_CIVITA
from affconn.curvature import (SCAN_COUNT, curvature_bound_scan,
                               ricci_generic, ricci_tensor, static_ricci,
                               weighted_ricci)
from affconn.operators import QUAD_GRID, QUAD_ORDER, box_quadrature
from affconn.scenarios import get_scenario, scenario_names
from oracles import metric_at, ricci_frame_sum, riemann_at, traced_ricci

S2_WEIGHTED = sphere_chart(weight=height_weight(0.3))


class TestRiemannRicci:
    def test_flat_space_vanishes(self):
        man = euclidean_chart(2)
        riem = riemann_at(man, [0.2, -0.1], LEVI_CIVITA)
        assert np.max(np.abs(riem)) <= 1e-12

    def test_round_sphere_einstein(self):
        man = sphere_chart()
        for x in halton_points(man, 8):
            ric = ricci_tensor(man, x)
            g = metric_at(man, x)
            assert np.allclose(ric, g, atol=1e-10)

    def test_round_3_sphere_einstein(self):
        man = sphere3_chart()
        x = [1.1, 1.3, 0.4]
        ric = ricci_tensor(man, x)
        g = metric_at(man, x)
        assert np.allclose(ric, 2.0 * g, atol=1e-9)

    def test_frame_sum_matches_coordinate_trace(self):
        params = WeightParams(0.4, -0.2)
        for x in halton_points(S2_WEIGHTED, 6):
            a = ricci_tensor(S2_WEIGHTED, x, params)
            b = ricci_frame_sum(S2_WEIGHTED, x, params)
            assert np.allclose(a, b, atol=1e-10)

    def test_first_bianchi_antisymmetry(self):
        riem = riemann_at(sphere_chart(), [1.0, 0.5], LEVI_CIVITA)
        # R^l_{kij} = -R^l_{kji}
        assert np.allclose(riem, -np.swapaxes(riem, 2, 3), atol=1e-12)


def same_bits(got, ref):
    """Entry for entry the same type and the same bytes."""
    return all(type(v) is type(w)
               and np.asarray(v).tobytes() == np.asarray(w).tobytes()
               for row, ref_row in zip(got, ref) for v, w in zip(row, ref_row))


def sample_points(name):
    """Float points, the scan's Halton columns and, with a region, the
    Reilly quadrature arrays of a scenario's chart."""
    scn = get_scenario(name)
    man = scn.manifold()
    pts = halton_points(man, SCAN_COUNT)
    yield from (man.point(x) for x in pts[:5])
    yield [pts[:, i].copy() for i in range(man.dim)]
    if scn.region_factory is not None:
        region = scn.region()
        yield box_quadrature(region.lower, region.upper, QUAD_GRID,
                             QUAD_ORDER)[0]


# Ric from its trace entries does the full tensor's arithmetic on them.
@pytest.mark.parametrize("params", [LEVI_CIVITA, WeightParams(0.7, -0.4)],
                         ids=["levi-civita", "generic"])
@pytest.mark.parametrize("name", scenario_names())
def test_ricci_keeps_the_bits_of_the_riemann_trace(name, params):
    man = get_scenario(name).manifold()
    for x in sample_points(name):
        assert same_bits(ricci_generic(man, params, x),
                         traced_ricci(man, params, x))


class TestOracles:
    def test_static_oracle_matches_affine_ricci(self):
        params = WeightParams(0.0, 1.0)
        for x in halton_points(S2_WEIGHTED, 10):
            ric_d = ricci_tensor(S2_WEIGHTED, x, params)
            oracle = static_ricci(S2_WEIGHTED, x)
            assert np.max(np.abs(ric_d - oracle)) <= 1e-9

    def test_one_weighted_oracle_matches_affine_ricci(self):
        man = S2_WEIGHTED
        params = WeightParams(1.0 / (man.dim - 1), 0.0)

        def f(z):
            return -man.weight(z)

        for x in halton_points(man, 10):
            ric_d = ricci_tensor(man, x, params)
            oracle = weighted_ricci(man, f, x)
            assert np.max(np.abs(ric_d - oracle)) <= 1e-9

    def test_constant_f_reduces_to_ricci(self):
        man = sphere_chart()
        x = [1.0, 0.3]
        plain = ricci_tensor(man, x)
        got = weighted_ricci(man, lambda z: 0.7 + 0.0 * z[0], x)
        assert np.allclose(got, plain, atol=1e-10)


class TestBoundScan:
    def test_classical_sphere_constant(self):
        rep = curvature_bound_scan(sphere_chart(), WeightParams(0.0, 0.0))
        assert rep.k_best == pytest.approx(1.0, abs=1e-10)
        assert rep.asymmetry <= 1e-10

    def test_classical_3_sphere_constant(self):
        rep = curvature_bound_scan(sphere3_chart(), WeightParams(0.0, 0.0))
        assert rep.k_best == pytest.approx(2.0, abs=1e-9)

    def test_flat_space_zero(self):
        rep = curvature_bound_scan(euclidean_chart(2), WeightParams(0.0, 0.0))
        assert rep.k_best == pytest.approx(0.0, abs=1e-12)

    def test_weighted_quadratic_golden_value(self):
        from affconn.charts import height_squared_weight
        man = sphere_chart(weight=height_squared_weight(0.1))
        rep = curvature_bound_scan(man, WeightParams(1.0, 0.0))
        # Frozen from an initial verified run of this configuration.
        assert rep.k_best == pytest.approx(0.8001756101461306, abs=1e-10)
        assert rep.k_best > 0

    # The scan whitens all samples in one batched call; per-sample scipy
    # eigh of the pair (S, e^{(a-b)u} g) is the reference, to a few ulps.
    @pytest.mark.parametrize("name", scenario_names())
    def test_batched_scan_matches_per_sample_eigh(self, name):
        scn = get_scenario(name)
        man = scn.manifold()
        rep = curvature_bound_scan(man, scn.params)
        sym = 0.5 * (rep.ricci_values + rep.ricci_values.transpose(0, 2, 1))
        lam = []
        for x, s in zip(rep.points, sym):
            conf = np.exp(scn.params.conformal_exponent * man.weight(list(x)))
            lam.append(scipy.linalg.eigh(s, conf * metric_at(man, x),
                                         eigvals_only=True)[0])
        k = int(np.argmin(lam))
        assert abs(rep.k_best - lam[k]) <= 1e-15 * max(abs(lam[k]), 1.0)
        assert rep.min_point == tuple(rep.points[k])

    def test_report_shape_and_min_point(self):
        rep = curvature_bound_scan(S2_WEIGHTED, WeightParams(0.4, -0.2))
        assert rep.points.shape == (SCAN_COUNT, 2)
        assert rep.ricci_values.shape == (SCAN_COUNT, 2, 2)
        assert len(rep.min_point) == 2
