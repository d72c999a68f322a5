"""Charts, sampling, frames, and the weight families."""

import dataclasses

import numpy as np
import pytest

from affconn.charts import (WeightParams, euclidean_chart, halton_points,
                            height_squared_weight, height_weight,
                            polar_disk_chart, sphere3_chart, sphere_chart)
from affconn.connections import (amari_chentsov, amari_chentsov_closed_form,
                                 connection_coeffs)
from affconn.curvature import ricci_tensor, static_ricci, weighted_ricci
from affconn.dual import Dual
from affconn.errors import PointOutOfDomain
from affconn.operators import hess_D_generic
from oracles import (linear_weight, metric_at, orthonormal_frame,
                     radial_weight, riemann_generic)


class TestAdmissibility:
    def test_sphere_margin_excludes_poles(self):
        man = sphere_chart()
        with pytest.raises(PointOutOfDomain):
            man.point([0.0, 1.0])
        with pytest.raises(PointOutOfDomain):
            man.point([np.pi, 1.0])
        x = np.array([np.pi / 2, 0.0])
        out = man.point(x)
        assert out == [np.pi / 2, 0.0]
        assert all(type(c) is float for c in out)

    def test_dual_point_is_refused(self):
        # float() of a Dual raises, so no lifted point enters an evaluation.
        with pytest.raises(TypeError):
            sphere_chart().point([1.0, Dual(0.5, 1.0, 1)])

    @pytest.mark.parametrize("dim", [0, 4])
    def test_dimension_outside_one_to_three_is_refused(self, dim):
        with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
            dataclasses.replace(euclidean_chart(), dim=dim)

    def test_periodic_axis_never_rejects(self):
        man = sphere_chart()
        assert man.point([1.0, 100.0]) == [1.0, 100.0]

    # A point needs one finite coordinate per axis, the periodic one too.
    @pytest.mark.parametrize("x", [[1.0, 0.5, 7.0], [1.0], [1.0, np.nan],
                                   [1.0, np.inf]],
                             ids=["extra", "missing", "nan", "inf"])
    def test_malformed_point_is_refused(self, x):
        with pytest.raises(PointOutOfDomain, match="not one finite coordinate per axis"):
            connection_coeffs(sphere_chart(), WeightParams(0.4, -0.2), x)

    def test_halton_points_inside_box_and_deterministic(self):
        man = sphere_chart()
        pts = halton_points(man, 40)
        box = man.admissible_box()
        assert np.all(pts[:, 0] >= box[0][0]) and np.all(pts[:, 0] <= box[0][1])
        assert np.array_equal(pts, halton_points(man, 40))

    def test_halton_prefix_stability(self):
        man = sphere3_chart()
        assert np.array_equal(halton_points(man, 10), halton_points(man, 25)[:10])


class TestMetric:
    @pytest.mark.parametrize("man,x", [
        (sphere_chart(), [1.1, 0.4]),
        (sphere3_chart(), [1.0, 1.2, 0.3]),
        (polar_disk_chart(), [0.5, 2.0]),
        (euclidean_chart(), [0.1, -0.2]),
    ])
    def test_spd_everywhere_sampled(self, man, x):
        g = np.array(man.metric(man.point(x)), dtype=float)
        assert g.shape == (man.dim, man.dim)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g)[0] > 0
        # Every point-tensor function returns a plain float64 array with one
        # axis of length n per slot.
        p = WeightParams(0.4, -0.2)
        tensors = [
            (connection_coeffs(man, p, x), 3),
            (ricci_tensor(man, x, p), 2),
            (static_ricci(man, x), 2),
            (weighted_ricci(man, lambda z: z[0] * z[-1], x), 2),
            (amari_chentsov(man, p, x), 3),
            (amari_chentsov_closed_form(man, p, x), 3),
        ]
        for value, rank in tensors:
            assert type(value) is np.ndarray and value.dtype == np.float64
            assert value.shape == (man.dim,) * rank
        # The nested-list forms have the same slots.
        point = man.point(x)
        assert np.shape(riemann_generic(man, p, point)) == (man.dim,) * 4
        assert np.shape(hess_D_generic(man, p, lambda z: z[0] * z[-1],
                                       point)) == (man.dim,) * 2

    def test_sphere_components(self):
        g = metric_at(sphere_chart(radius=2.0), [0.8, 0.1])
        assert g[0, 0] == pytest.approx(4.0)
        assert g[1, 1] == pytest.approx(4.0 * np.sin(0.8) ** 2)

    def test_orthonormal_frame(self):
        man = sphere_chart()
        frame = orthonormal_frame(man, [1.0, 2.0])
        g = metric_at(man, [1.0, 2.0])
        gram = frame.T @ g @ frame
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        # Gram-Schmidt in coordinate order keeps the first leg along axis 0.
        assert frame[1, 0] == pytest.approx(0.0)


class TestWeights:
    def test_params_tau(self):
        p = WeightParams(0.4, -0.2)
        assert p.tau(2) == pytest.approx(3 * 0.4 - 0.2)
        assert p.conformal_exponent == pytest.approx(0.6)

    @pytest.mark.parametrize("factory,x,expected", [
        (lambda: height_weight(0.3), [0.5, 1.0], 0.3 * np.cos(0.5)),
        (lambda: height_squared_weight(0.2), [0.5, 1.0], 0.2 * np.cos(0.5) ** 2),
        (lambda: linear_weight(2.0, axis=1), [0.1, 0.4], 0.8),
        (lambda: radial_weight(1.5), [0.3, 0.4], 1.5 * 0.25 / 2),
    ])
    def test_families(self, factory, x, expected):
        u = factory()
        assert u(x) == pytest.approx(expected)
