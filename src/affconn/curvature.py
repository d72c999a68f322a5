"""Curvature tensors of coordinate connection-coefficient fields.

The Ricci tensor is traced from Riemann entries built on exact dual-number
derivatives of the coefficient field.  Two specialized tensors from the
weighted geometry literature (the static Ricci tensor and the 1-weighted
Ricci curvature) are provided as independent oracles for the weighted
affine Ricci tensor at the matching parameter values.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra
from .charts import halton_points
from .connections import LEVI_CIVITA, affine_gamma_generic, christoffel_generic
from .dual import exp, jacobian, partial


def _riemann_entries(man, params, x):
    """R^l_{kij} = d_i G^l_{jk} - d_j G^l_{ik} + sum_m (G^l_{im} G^m_{jk}
    - G^l_{jm} G^m_{ik}) at ``x``, as a function of (l, k, i, j)."""
    def gfield(z):
        return affine_gamma_generic(man, params, z)

    gamma, dgamma = gfield(list(x)), jacobian(gfield, x)

    def entry(l, k, i, j):
        acc = dgamma[i][l][j][k] - dgamma[j][l][i][k]
        for m in range(len(gamma)):
            acc = acc + gamma[l][i][m] * gamma[m][j][k] \
                      - gamma[l][j][m] * gamma[m][i][k]
        return acc
    return entry


def ricci_generic(man, params, x):
    """Ric[p][q] = sum_a R^a_{qap}, the trace of Z -> R(Z, e_p) e_q."""
    entry, n = _riemann_entries(man, params, x), man.dim
    ric = algebra.zeros(n, n)
    for p in range(n):
        for q in range(n):
            acc = 0.0
            for a in range(n):
                acc = acc + entry(a, q, a, p)
            ric[p][q] = acc
    return ric


def ricci_tensor(man, x, params=LEVI_CIVITA):
    """Ricci tensor Ric[p, q] at ``x`` (coordinate-trace contraction)."""
    return np.array(ricci_generic(man, params, man.point(x)), dtype=float)


def scalar_hessian_lc(man, f, x):
    """Levi-Civita Hessian of a scalar field, as a nested list."""
    n = man.dim
    df = jacobian(f, x)
    d2f = algebra.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            d2f[i][j] = d2f[j][i] = partial(lambda z: partial(f, z, j), x, i)
    gamma = christoffel_generic(man, x)
    hess = algebra.zeros(n, n)
    for i in range(n):
        for j in range(n):
            acc = d2f[i][j]
            for k in range(n):
                acc = acc - gamma[k][i][j] * df[k]
            hess[i][j] = acc
    return hess


def static_ricci(man, x):
    """Substatic tensor S[i, j] = Ric - Hess(V)/V + (Lap(V)/V) g, V = e^u."""
    x = man.point(x)
    n = man.dim

    def vfun(z):
        return exp(man.weight(z))

    ric = ricci_generic(man, LEVI_CIVITA, x)
    hess_v = scalar_hessian_lc(man, vfun, x)
    g = man.metric(x)
    gi = algebra.inv(g)
    v = vfun(x)
    lap_v = algebra.contract(gi, hess_v)
    out = algebra.zeros(n, n)
    for i in range(n):
        for j in range(n):
            out[i][j] = ric[i][j] - hess_v[i][j] / v + (lap_v / v) * g[i][j]
    return np.array(out, dtype=float)


def weighted_ricci(man, f_field, x):
    """1-weighted Ricci tensor W[i, j] = Ric + Hess f - df (x) df / (1 - n)."""
    x = man.point(x)
    n = man.dim
    ric = ricci_generic(man, LEVI_CIVITA, x)
    hess_f = scalar_hessian_lc(man, f_field, x)
    df = jacobian(f_field, x)
    out = algebra.zeros(n, n)
    scale = 1.0 / (1.0 - n)
    for i in range(n):
        for j in range(n):
            out[i][j] = ric[i][j] + hess_f[i][j] - scale * df[i] * df[j]
    return np.array(out, dtype=float)


@dataclass(frozen=True)
class CurvatureReport:
    """Sampled lower bound for the weighted affine Ricci tensor."""

    asymmetry: float            # max |Ric_ij - Ric_ji| over the sample
    k_best: float               # inf of smallest generalized eigenvalue
    min_point: tuple            # sample point attaining k_best


# Halton points in every curvature scan.
SCAN_COUNT = 100


def curvature_bound_scan(man, params):
    """Scan Halton points for the best constant K with Ric^D >= K e^{(a-b)u} g."""
    pts = halton_points(man, SCAN_COUNT)
    n = man.dim
    coords = [pts[:, i].copy() for i in range(n)]
    ric_nested = ricci_generic(man, params, coords)
    ric = np.empty((SCAN_COUNT, n, n))
    conf_g = np.empty((SCAN_COUNT, n, n))
    graw = man.metric(coords)
    conf = exp(params.conformal_exponent * man.weight(coords))
    for i in range(n):
        for j in range(n):
            ric[:, i, j] = ric_nested[i][j]
            conf_g[:, i, j] = conf * graw[i][j]

    asym = float(np.max(np.abs(ric - np.transpose(ric, (0, 2, 1)))))
    sym = 0.5 * (ric + np.transpose(ric, (0, 2, 1)))
    # With B = conf g = L L^T, the pair (S, B) has the eigenvalues of the
    # whitened L^-1 S L^-T, taken for all samples in one batched call.
    chol = np.linalg.cholesky(conf_g)
    half = np.linalg.solve(chol, sym)                             # L^-1 S
    lam = np.linalg.eigvalsh(np.linalg.solve(chol, np.swapaxes(half, 1, 2)))
    k = int(np.argmin(lam[:, 0]))
    return CurvatureReport(asymmetry=asym, k_best=float(lam[k, 0]),
                           min_point=tuple(float(c) for c in pts[k]))
