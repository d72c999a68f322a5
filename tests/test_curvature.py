"""Curvature tensors, independent oracles, and the bound scan."""

import numpy as np
import pytest

from affconn.charts import (WeightParams, euclidean_chart, eval_metric,
                            halton_points, height_weight, sphere3_chart,
                            sphere_chart)
from affconn.curvature import (curvature_bound_scan, ricci_frame_sum,
                               ricci_tensor, riemann_tensor, static_ricci,
                               weighted_ricci)
from affconn.errors import InvalidN, NonConstantFAtNEqualsN

S2_WEIGHTED = sphere_chart(weight=height_weight(0.3))


class TestRiemannRicci:
    def test_flat_space_vanishes(self):
        man = euclidean_chart(2)
        riem = riemann_tensor(man, [0.2, -0.1]).entries
        assert np.max(np.abs(riem)) <= 1e-12

    def test_round_sphere_einstein(self):
        man = sphere_chart()
        for x in halton_points(man, 8):
            ric = ricci_tensor(man, x).entries
            g = eval_metric(man, x).matrix
            assert np.allclose(ric, g, atol=1e-10)

    def test_round_3_sphere_einstein(self):
        man = sphere3_chart()
        x = [1.1, 1.3, 0.4]
        ric = ricci_tensor(man, x).entries
        g = eval_metric(man, x).matrix
        assert np.allclose(ric, 2.0 * g, atol=1e-9)

    def test_frame_sum_matches_coordinate_trace(self):
        params = WeightParams(0.4, -0.2)
        for x in halton_points(S2_WEIGHTED, 6):
            a = ricci_tensor(S2_WEIGHTED, x, params).entries
            b = ricci_frame_sum(S2_WEIGHTED, x, params).entries
            assert np.allclose(a, b, atol=1e-10)

    def test_first_bianchi_antisymmetry(self):
        riem = riemann_tensor(sphere_chart(), [1.0, 0.5]).entries
        # R^l_{kij} = -R^l_{kji}
        assert np.allclose(riem, -np.swapaxes(riem, 2, 3), atol=1e-12)


class TestOracles:
    def test_static_oracle_matches_affine_ricci(self):
        params = WeightParams(0.0, 1.0)
        for x in halton_points(S2_WEIGHTED, 10):
            ric_d = ricci_tensor(S2_WEIGHTED, x, params).entries
            oracle = static_ricci(S2_WEIGHTED, x).entries
            assert np.max(np.abs(ric_d - oracle)) <= 1e-9

    def test_one_weighted_oracle_matches_affine_ricci(self):
        man = S2_WEIGHTED
        params = WeightParams(1.0 / (man.dim - 1), 0.0)

        def f(z):
            return -man.weight(z)

        for x in halton_points(man, 10):
            ric_d = ricci_tensor(man, x, params).entries
            oracle = weighted_ricci(man, f, 1.0, x).entries
            assert np.max(np.abs(ric_d - oracle)) <= 1e-9

    def test_constant_f_reduces_to_ricci(self):
        man = sphere_chart()
        x = [1.0, 0.3]
        plain = ricci_tensor(man, x).entries
        got = weighted_ricci(man, lambda z: 0.7 + 0.0 * z[0], 5.0, x).entries
        assert np.allclose(got, plain, atol=1e-10)

    def test_infinite_n_drops_quadratic_term(self):
        man = S2_WEIGHTED
        x = [1.0, 0.3]
        got = weighted_ricci(man, man.weight, np.inf, x).entries
        # Bakry-Emery form: Ric + Hess f only.
        from affconn.curvature import scalar_hessian_lc
        ric = ricci_tensor(man, x).entries
        hess = np.array(scalar_hessian_lc(man, man.weight, list(x)))
        assert np.allclose(got, ric + hess, atol=1e-10)

    def test_invalid_n_rejected(self):
        with pytest.raises(InvalidN):
            weighted_ricci(S2_WEIGHTED, S2_WEIGHTED.weight, 1.5, [1.0, 0.3])

    def test_n_equals_dim_needs_constant_f(self):
        with pytest.raises(NonConstantFAtNEqualsN):
            weighted_ricci(S2_WEIGHTED, S2_WEIGHTED.weight, 2.0, [1.0, 0.3])


class TestBoundScan:
    def test_classical_sphere_constant(self):
        rep = curvature_bound_scan(sphere_chart(), WeightParams(0.0, 0.0), 60)
        assert rep.k_best == pytest.approx(1.0, abs=1e-10)
        assert rep.asymmetry <= 1e-10

    def test_classical_3_sphere_constant(self):
        rep = curvature_bound_scan(sphere3_chart(), WeightParams(0.0, 0.0), 60)
        assert rep.k_best == pytest.approx(2.0, abs=1e-9)

    def test_flat_space_zero(self):
        rep = curvature_bound_scan(euclidean_chart(2), WeightParams(0.0, 0.0), 20)
        assert rep.k_best == pytest.approx(0.0, abs=1e-12)

    def test_weighted_quadratic_golden_value(self):
        from affconn.charts import height_squared_weight
        man = sphere_chart(weight=height_squared_weight(0.1))
        rep = curvature_bound_scan(man, WeightParams(1.0, 0.0), 100)
        # Frozen from an initial verified run of this configuration.
        assert rep.k_best == pytest.approx(0.8001756101461306, abs=1e-10)
        assert rep.k_best > 0

    def test_report_shape_and_min_point(self):
        rep = curvature_bound_scan(S2_WEIGHTED, WeightParams(0.4, -0.2), 30)
        assert rep.points.shape == (30, 2)
        assert rep.ricci_values.shape == (30, 2, 2)
        assert len(rep.min_point) == 2
