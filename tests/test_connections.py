"""Connection coefficients, duality, the cubic tensor, and equiaffinity."""

import dataclasses

import numpy as np
import pytest

from affconn.charts import (WeightParams, euclidean_chart, halton_points,
                            height_weight, sphere_chart)
from affconn.connections import (LEVI_CIVITA, amari_chentsov,
                                 amari_chentsov_closed_form, connection_coeffs,
                                 duality_residual, equiaffine_residual)
from oracles import linear_weight

S2_WEIGHTED = sphere_chart(weight=height_weight(0.3))
GENERIC = WeightParams(0.4, 0.1)


def linear_fields(n):
    def xf(z):
        return [1.0 + 0.2 * z[i % n] for i in range(n)]

    def yf(z):
        return [0.5 * z[(i + 1) % n] - 0.3 for i in range(n)]

    def zf(z):
        return [z[i] * z[i] * 0.1 + 1.0 for i in range(n)]
    return xf, yf, zf


class TestChristoffel:
    def test_sphere_closed_form(self):
        man = sphere_chart()
        th = 1.1
        gamma = connection_coeffs(man, LEVI_CIVITA, [th, 0.7])
        assert gamma[0][1][1] == pytest.approx(-np.sin(th) * np.cos(th))
        assert gamma[1][0][1] == pytest.approx(np.cos(th) / np.sin(th))
        assert gamma[1][1][0] == pytest.approx(np.cos(th) / np.sin(th))
        assert gamma[0][0][0] == pytest.approx(0.0, abs=1e-14)

    def test_constant_weight_reduces_to_levi_civita(self):
        man = sphere_chart(weight=lambda x: 1.7 + 0.0 * x[0])
        x = [0.9, 0.4]
        lc = connection_coeffs(man, LEVI_CIVITA, x)
        aff = connection_coeffs(man, GENERIC, x)
        assert np.allclose(aff, lc, atol=1e-12)

    def test_flat_substitution_example(self):
        # u = x1, alpha = 1, beta = 0 at the origin of the plane.
        man = dataclasses.replace(euclidean_chart(), weight=linear_weight(1.0))
        gamma = connection_coeffs(man, WeightParams(1.0, 0.0),
                                  [0.0, 0.0])
        assert gamma[0][0][0] == pytest.approx(2.0)
        assert gamma[1][0][1] == pytest.approx(1.0)
        assert gamma[1][1][0] == pytest.approx(1.0)
        assert gamma[0][1][1] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("params", [LEVI_CIVITA, GENERIC, GENERIC.dual()],
                             ids=["levi-civita", "weighted", "dual"])
    def test_torsion_free(self, params):
        for x in halton_points(S2_WEIGHTED, 10):
            gamma = connection_coeffs(S2_WEIGHTED, params, list(x))
            assert np.allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-12)

    def test_dual_swap_identity(self):
        # The dual swaps the roles of the two terms with opposite signs:
        # Gamma_LC - beta (du_i d^k_j + du_j d^k_i) - alpha g_ij (g^-1 du)^k,
        # written out for u = 0.3 cos(theta) on the round sphere.
        dual = GENERIC.dual()
        assert dual.dual() == GENERIC
        assert dual.conformal_exponent == GENERIC.conformal_exponent
        th = 1.2
        g = np.diag([1.0, np.sin(th) ** 2])
        du = np.array([-0.3 * np.sin(th), 0.0])
        lc = np.zeros((2, 2, 2))
        lc[0, 1, 1] = -np.sin(th) * np.cos(th)
        lc[1, 0, 1] = lc[1, 1, 0] = np.cos(th) / np.sin(th)
        eye = np.eye(2)
        sym = np.einsum("i,kj->kij", du, eye) + np.einsum("j,ki->kij", du, eye)
        grad = np.einsum("ij,k->kij", g, np.linalg.solve(g, du))
        expected = lc - GENERIC.beta * sym - GENERIC.alpha * grad
        gamma = connection_coeffs(S2_WEIGHTED, dual, [th, 0.5])
        assert np.allclose(gamma, expected, atol=1e-12)


class TestDuality:
    @pytest.mark.parametrize("params", [
        WeightParams(0.0, 1.0),
        WeightParams(1.0, 0.0),
        WeightParams(0.4, -0.2),
    ])
    def test_pairing_identity(self, params):
        fields = linear_fields(2)
        for x in halton_points(S2_WEIGHTED, 15):
            res = duality_residual(S2_WEIGHTED, params, list(x), *fields)
            assert res <= 1e-9

    def test_perturbation_sensitivity(self):
        fields = linear_fields(2)
        x = list(halton_points(S2_WEIGHTED, 1)[0])
        res = duality_residual(S2_WEIGHTED, GENERIC, x, *fields, perturb=0.01)
        assert res > 1e-4


class TestCubicTensor:
    def test_matches_closed_form_and_symmetric(self):
        params = WeightParams(0.4, 0.1)
        for x in halton_points(S2_WEIGHTED, 10):
            c = amari_chentsov(S2_WEIGHTED, params, list(x))
            cf = amari_chentsov_closed_form(S2_WEIGHTED, params, list(x))
            assert np.max(np.abs(c - cf)) <= 1e-10
            for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
                assert np.max(np.abs(c - np.transpose(c, perm))) <= 1e-10

    def test_vanishes_when_parameters_cancel(self):
        c = amari_chentsov(S2_WEIGHTED, WeightParams(0.5, -0.5),
                           [1.0, 0.3])
        assert np.max(np.abs(c)) <= 1e-12

    def test_vanishes_for_constant_weight(self):
        man = sphere_chart(weight=lambda x: 0.8 + 0.0 * x[0])
        c = amari_chentsov(man, GENERIC, [1.0, 0.3])
        assert np.max(np.abs(c)) <= 1e-12


class TestEquiaffinity:
    def xfield(self, z):
        return [0.7 + 0.1 * z[1], -0.4 + 0.2 * z[0]]

    def test_volume_form_parallel(self):
        for x in halton_points(S2_WEIGHTED, 10):
            res = equiaffine_residual(S2_WEIGHTED, GENERIC, list(x), self.xfield)
            assert res <= 1e-9

    @pytest.mark.parametrize("shift", [0.1, -0.1])
    def test_wrong_exponent_detected(self, shift):
        x = [1.2, 0.8]
        res = equiaffine_residual(S2_WEIGHTED, GENERIC, x, self.xfield,
                                  tau_shift=shift)
        assert res > 1e-5
