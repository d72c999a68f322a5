"""Affine operators, extrinsic geometry, and the integral identity."""

import math

import numpy as np
import pytest

from affconn import dual
from affconn.charts import (WeightParams, euclidean_chart, halton_points,
                            height_squared_weight, height_weight,
                            polar_disk_chart, sphere_chart)
from affconn.errors import DegenerateJacobian
from affconn.operators import (DomainRegion, Hypersurface, _full_rank,
                               d_minimal_residual, hess_D_generic,
                               lap_D_generic, reilly_residual,
                               second_fundamental)
from oracles import linear_weight, validate_orientation

P0 = WeightParams(0.0, 0.0)
HALF_PI = 0.5 * np.pi


def equator(man):
    return Hypersurface(ambient=man, lower=(0.0,), upper=(2 * np.pi,),
                        periodic=(True,),
                        embedding=lambda s: [HALF_PI + 0.0 * s[0], s[0]])


def latitude(man, theta0):
    return Hypersurface(ambient=man, lower=(0.0,), upper=(2 * np.pi,),
                        periodic=(True,),
                        embedding=lambda s: [theta0 + 0.0 * s[0], s[0]])


class TestScalarOperators:
    def test_flat_laplacian_example(self):
        # phi = x0^2, u = x0, (alpha, beta) = (1, 0): n alpha + 2 beta = 2.
        man = euclidean_chart(2, weight=linear_weight(1.0))
        params = WeightParams(1.0, 0.0)

        def phi(z):
            return z[0] * z[0]

        assert lap_D_generic(man, params, phi,
                             man.point([0.0, 0.0])) == pytest.approx(2.0)
        x = [0.3, 0.1]
        expected = np.exp(-0.3) * (2.0 + 2.0 * 2.0 * 0.3)
        assert lap_D_generic(man, params, phi,
                             man.point(x)) == pytest.approx(expected)

    def test_flat_hessian_of_a_linear_function(self):
        # Hess phi = 0 and g = I, so Hess^D phi = e^{(beta - alpha) u}
        # (beta (du dphi + dphi du) + alpha <du, dphi> I).
        man = euclidean_chart(2, weight=linear_weight(2.0))
        params = WeightParams(0.5, -0.5)

        def phi(z):
            return z[0] + 3.0 * z[1]

        h = hess_D_generic(man, params, phi, man.point([0.1, 0.0]))
        du, dphi = np.array([2.0, 0.0]), np.array([1.0, 3.0])
        expected = np.exp((params.beta - params.alpha) * 0.2) * (
            params.beta * (np.outer(du, dphi) + np.outer(dphi, du))
            + params.alpha * (du @ dphi) * np.eye(2))
        assert np.allclose(h, expected, atol=1e-12)

    def test_trace_of_hessian_is_laplacian(self):
        man = sphere_chart(weight=height_weight(0.3))
        params = WeightParams(0.4, -0.2)

        def phi(z):
            return dual.sin(z[0]) * dual.cos(z[1])

        for x in halton_points(man, 12):
            x = man.point(x)
            h = np.array(hess_D_generic(man, params, phi, x))
            gi = np.linalg.inv(np.array(man.metric(x)))
            assert np.trace(gi @ h) == pytest.approx(
                lap_D_generic(man, params, phi, x), abs=1e-10)

    def test_unweighted_reduces_to_laplace_beltrami(self):
        man = sphere_chart()

        def phi(z):
            return dual.cos(z[0])  # first spherical harmonic, eigenvalue 2

        for x in halton_points(man, 6):
            assert lap_D_generic(man, P0, phi, man.point(x)) == pytest.approx(
                -2.0 * np.cos(x[0]), abs=1e-10)


class TestExtrinsic:
    def test_equator_is_geodesic(self):
        data = second_fundamental(equator(sphere_chart()), P0, [0.4])
        assert data.mean_curvature == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(data.second_fundamental)) <= 1e-12

    def test_latitude_mean_curvature(self):
        theta0 = np.pi / 3
        data = second_fundamental(latitude(sphere_chart(), theta0), P0, [0.4])
        assert data.mean_curvature == pytest.approx(1.0 / np.tan(theta0))

    def test_affine_mean_curvature_shift(self):
        man = sphere_chart(weight=height_weight(0.3))
        params = WeightParams(1.0, 0.0)
        data = second_fundamental(equator(man), params, [0.4])
        # u = 0.3 cos(theta): du(nu) = -0.3 sin(theta) at the equator.
        assert data.normal_weight_derivative == pytest.approx(-0.3)
        assert data.mean_curvature_affine == pytest.approx(-0.3)

    def test_even_weight_keeps_equator_minimal(self):
        man = sphere_chart(weight=height_squared_weight(0.1))
        params = WeightParams(1.0, 0.0)
        assert d_minimal_residual(equator(man), params) <= 1e-12

    def test_degenerate_embedding_rejected(self):
        bad = Hypersurface(ambient=sphere_chart(), lower=(0.0,),
                           upper=(1.0,), periodic=(False,),
                           embedding=lambda s: [1.0 + 0.0 * s[0], 2.0 + 0.0 * s[0]])
        with pytest.raises(DegenerateJacobian):
            second_fundamental(bad, P0, [0.5])

    # The point is evaluated on Python floats, whose division by the zero
    # normal raises; an embedding that returns numpy scalars gives inf/nan
    # instead.  Both surface as the same error.
    @pytest.mark.parametrize("point", [np.array([0.5]), [np.float64(0.5)]])
    @pytest.mark.parametrize("height", [2.0, np.float64(2.0)])
    def test_degenerate_embedding_rejected_for_numpy_points(self, point,
                                                            height):
        bad = Hypersurface(ambient=sphere_chart(), lower=(0.0,),
                           upper=(1.0,), periodic=(False,),
                           embedding=lambda s: [1.0 + 0.0 * s[0],
                                                height + 0.0 * s[0]])
        with pytest.raises(DegenerateJacobian):
            second_fundamental(bad, P0, point)


    # A NaN Gram matrix is refused like a singular one; an SVD of it raises
    # numpy's LinAlgError, which no GeometryError handler catches.
    @pytest.mark.parametrize("nan", [math.nan, np.float64(np.nan)])
    def test_nan_embedding_rejected(self, nan):
        bad = Hypersurface(ambient=sphere_chart(), lower=(0.0,),
                           upper=(1.0,), periodic=(False,),
                           embedding=lambda s: [1.0 + 0.0 * s[0], nan * s[0]])
        with pytest.raises(DegenerateJacobian, match="not finite"):
            second_fundamental(bad, P0, [0.5])


def rotated_gram(eigenvalues, angle):
    """R diag(eigenvalues) R^T, R the rotation by ``angle``, with its lower
    off-diagonal entry set to the upper one."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    (a, b), (_, d) = ((rot * eigenvalues) @ rot.T).tolist()
    return [[a, b], [b, d]]


def random_grams(count):
    """Gram matrices A^T A of 1 and 2 random columns in R^3, scaled so that
    their least eigenvalues straddle 1e-10."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        cols = rng.normal(size=(3, rng.integers(1, 3))) * 10 ** rng.uniform(
            -6.5, -3.5)
        yield (cols.T @ cols).tolist()


INF = math.inf
GRAMS = (
    [[], [[1.0]], [[0.0]], [[-2.0]], [[1e-10]], [[1e-10 * (1 + 1e-6)]],
     [[1e-10 * (1 - 1e-6)]], [[INF]], [[-INF]],
     [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
     [[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]],
     [[1.0, 0.0], [0.0, 1e-10]], [[1.0, 0.0], [0.0, 1e-10 * (1 + 1e-6)]],
     [[1.0, 0.0], [0.0, 1e-10 * (1 - 1e-6)]],
     [[INF, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -INF]],
     [[1.0, INF], [INF, 1.0]], [[INF, -INF], [-INF, INF]]]
    + [rotated_gram([big, 1e-10 * (1 + rel)], angle)
       for big in (1.0, 3e-10) for rel in (1e-3, -1e-3)
       for angle in (0.3, 1.2)]
    + list(random_grams(200)))


def test_closed_form_rank_agrees_with_matrix_rank():
    # A hand-made case sits on 1e-10 or 1e-6 (diagonal) or 1e-3 (rotated)
    # of it away; a random one at least 1% away.
    for gram in GRAMS:
        n = len(gram)
        with np.errstate(invalid="ignore"):
            rank = np.linalg.matrix_rank(np.reshape(gram, (n, n)), tol=1e-10)
        assert _full_rank(gram) == (rank == n), gram


# Coarser than the reference quadrature, which is enough for these
# identities and keeps the tests fast.
COARSE = {"grid": 16, "order": 6}


def disk_region():
    man = polar_disk_chart()
    boundary = Hypersurface(ambient=man, lower=(0.0,), upper=(2 * np.pi,),
                            periodic=(True,),
                            embedding=lambda s: [1.0 + 0.0 * s[0], s[0]])
    return DomainRegion(ambient=man, lower=(0.0, 0.0), upper=(1.0, 2 * np.pi),
                        boundary=boundary)


def hemisphere_region(weight):
    man = sphere_chart(weight=weight)
    return DomainRegion(ambient=man, lower=(0.0, 0.0),
                        upper=(HALF_PI, 2 * np.pi),
                        boundary=equator(man))


class TestIntegralIdentity:
    def test_orientation_validates(self):
        assert validate_orientation(disk_region())
        assert validate_orientation(hemisphere_region(height_weight(0.2)))

    @pytest.mark.parametrize("phi", [
        lambda z: z[0] * dual.cos(z[1]),
        lambda z: z[0] * z[0],
    ])
    def test_flat_disk_classical(self, phi):
        res = reilly_residual(disk_region(), P0, phi, **COARSE)
        assert res.residual <= 1e-8

    def test_unweighted_hemisphere(self):
        res = reilly_residual(hemisphere_region(lambda x: 0.0 * x[0]), P0,
                              lambda z: dual.cos(z[0]), **COARSE)
        assert res.residual <= 1e-10

    def test_weighted_hemisphere_reference(self):
        region = hemisphere_region(height_weight(0.2))
        res = reilly_residual(region, WeightParams(0.5, 0.3),
                              lambda z: dual.cos(z[0]))
        assert res.residual <= 1e-5

    def test_refinement_order(self):
        # The midpoint rule's residual falls at least fourfold per halving.
        region = hemisphere_region(height_weight(0.2))
        residuals = [reilly_residual(region, WeightParams(0.5, 0.3),
                                     lambda z: dual.cos(z[0]), grid=grid,
                                     order=1).residual
                     for grid in (8, 16, 32)]
        assert min(np.log2(np.divide(residuals[:-1], residuals[1:]))) >= 2.0
