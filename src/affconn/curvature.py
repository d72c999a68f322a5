"""Curvature tensors of coordinate connection-coefficient fields.

Riemann and Ricci tensors are assembled from exact dual-number derivatives
of the coefficient field.  Two specialized tensors from the weighted
geometry literature (the static Ricci tensor and the N-weighted Ricci
curvature) are provided as independent oracles for the weighted affine
Ricci tensor at the matching parameter values.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import algebra
from .charts import eval_metric, halton_points, orthonormal_frame
from .connections import LEVI_CIVITA, affine_gamma_generic, christoffel_generic
from .dual import derivative, exp, jacobian, value
from .errors import InvalidN, NonConstantFAtNEqualsN
from .tensors import LOWER, UPPER, TensorValue


def riemann_generic(man, params, x):
    """R[l][k][i][j] coefficients of R(e_i, e_j) e_k = R^l_{kij} e_l."""
    n = man.dim

    def gfield(z):
        return affine_gamma_generic(man, params, z)

    gamma = gfield(list(x))
    dgamma = jacobian(gfield, x)
    riem = algebra.zeros(n, n, n, n)
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    acc = dgamma[i][l][j][k] - dgamma[j][l][i][k]
                    for m in range(n):
                        acc = acc + gamma[l][i][m] * gamma[m][j][k] \
                                  - gamma[l][j][m] * gamma[m][i][k]
                    riem[l][k][i][j] = acc
    return riem


def ricci_generic(man, params, x):
    """Ric[p][q] as the coordinate trace of Z -> R(Z, e_p) e_q."""
    n = man.dim
    riem = riemann_generic(man, params, x)
    ric = algebra.zeros(n, n)
    for p in range(n):
        for q in range(n):
            acc = 0.0
            for a in range(n):
                acc = acc + riem[a][q][a][p]
            ric[p][q] = acc
    return ric


def riemann_tensor(man, x, params=LEVI_CIVITA):
    """Riemann tensor at ``x`` as a (1,3) tensor with slots [l, k, i, j]."""
    man.require_admissible(x)
    riem = riemann_generic(man, params, x)
    return TensorValue(value(riem), (UPPER, LOWER, LOWER, LOWER))


def ricci_tensor(man, x, params=LEVI_CIVITA):
    """Ricci tensor at ``x`` (coordinate-trace contraction)."""
    man.require_admissible(x)
    ric = ricci_generic(man, params, x)
    return TensorValue(value(ric), (LOWER, LOWER))


def ricci_frame_sum(man, x, params=LEVI_CIVITA):
    """Ricci via the orthonormal-frame sum; cross-checks the trace form."""
    man.require_admissible(x)
    riem = riemann_tensor(man, x, params).entries
    frame = orthonormal_frame(man, x).frame
    g = eval_metric(man, x).matrix
    ric = np.einsum("ai,bi,lb,lqap->pq", frame, frame, g, riem)
    return TensorValue(ric, (LOWER, LOWER))


def scalar_hessian_lc(man, f, x):
    """Levi-Civita Hessian of a scalar field, as a nested list."""
    n = man.dim
    df = jacobian(f, x)
    d2f = algebra.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            d2f[i][j] = d2f[j][i] = derivative(f, x, (i, j))
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
    """Ric - Hess(V)/V + (Lap(V)/V) g for V = e^u; the substatic tensor."""
    man.require_admissible(x)
    n = man.dim

    def vfun(z):
        return exp(man.weight(z))

    ric = ricci_generic(man, LEVI_CIVITA, x)
    hess_v = scalar_hessian_lc(man, vfun, list(x))
    g = man.metric(list(x))
    gi = algebra.inv(g)
    v = vfun(list(x))
    lap_v = 0.0
    for i in range(n):
        for j in range(n):
            lap_v = lap_v + gi[i][j] * hess_v[i][j]
    out = algebra.zeros(n, n)
    for i in range(n):
        for j in range(n):
            out[i][j] = ric[i][j] - hess_v[i][j] / v + (lap_v / v) * g[i][j]
    return TensorValue(value(out), (LOWER, LOWER))


def weighted_ricci(man, f_field, n_eff, x):
    """N-weighted Ricci tensor Ric + Hess f - df (x) df / (N - n).

    ``n_eff`` must lie in (-inf, 1] or [n, inf]; N = inf drops the last
    term and N = n admits only constant f.
    """
    man.require_admissible(x)
    n = man.dim
    if 1.0 < n_eff < n:
        raise InvalidN(f"effective dimension {n_eff} in excluded interval (1, {n})")
    ric = ricci_generic(man, LEVI_CIVITA, x)
    hess_f = scalar_hessian_lc(man, f_field, list(x))
    df = jacobian(f_field, x)
    out = algebra.zeros(n, n)
    if n_eff == n:
        if max(abs(value(d)) for d in df) > 1e-12:
            raise NonConstantFAtNEqualsN("N = dim requires a constant weight")
        scale = 0.0
    elif np.isinf(n_eff):
        scale = 0.0
    else:
        scale = 1.0 / (n_eff - n)
    for i in range(n):
        for j in range(n):
            out[i][j] = ric[i][j] + hess_f[i][j] - scale * df[i] * df[j]
    return TensorValue(value(out), (LOWER, LOWER))


@dataclass(frozen=True)
class CurvatureReport:
    """Sampled lower bound for the weighted affine Ricci tensor."""

    points: np.ndarray          # (count, n) sample points
    ricci_values: np.ndarray    # (count, n, n) weighted affine Ricci
    asymmetry: float            # max |Ric_ij - Ric_ji| over the sample
    k_best: float               # inf of smallest generalized eigenvalue
    min_point: tuple            # sample point attaining k_best


def curvature_bound_scan(man, params, sample_count=200):
    """Scan Halton points for the best constant K with Ric^D >= K e^{(a-b)u} g."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pts = halton_points(man, sample_count)
    n = man.dim
    coords = [pts[:, i].copy() for i in range(n)]
    ric_nested = ricci_generic(man, params, coords)
    shape = (sample_count,)
    ric = np.empty((sample_count, n, n))
    gmat = np.empty((sample_count, n, n))
    graw = man.metric(coords)
    for i in range(n):
        for j in range(n):
            ric[:, i, j] = np.broadcast_to(value(ric_nested[i][j]), shape)
            gmat[:, i, j] = np.broadcast_to(value(graw[i][j]), shape)
    conf = np.broadcast_to(value(exp(params.conformal_exponent * man.weight(coords))), shape)

    asym = float(np.max(np.abs(ric - np.transpose(ric, (0, 2, 1)))))
    sym = 0.5 * (ric + np.transpose(ric, (0, 2, 1)))
    k_best = np.inf
    min_point = tuple(pts[0])
    for k in range(sample_count):
        lam = scipy.linalg.eigh(sym[k], conf[k] * gmat[k], eigvals_only=True)[0]
        if lam < k_best:
            k_best = float(lam)
            min_point = tuple(float(c) for c in pts[k])
    return CurvatureReport(points=pts, ricci_values=ric, asymmetry=asym,
                           k_best=k_best, min_point=min_point)
