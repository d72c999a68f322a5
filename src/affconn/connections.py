"""Connection coefficients of the weighted affine family.

The family perturbs the Levi-Civita connection by the weight u and two
real parameters (alpha, beta):

    Gamma^D_k(i,j) = Gamma_k(i,j) + alpha (du_i d^k_j + du_j d^k_i)
                     + beta g_ij (grad u)^k

A connection is named by its ``WeightParams``: Levi-Civita is (0, 0), and
the dual of (alpha, beta) with respect to e^{(alpha-beta)u} g is
(-beta, -alpha), which ``WeightParams.dual`` returns.
"""

import numpy as np

from . import algebra
from .charts import WeightParams
from .dual import exp, jacobian, sqrt

LEVI_CIVITA = WeightParams(0.0, 0.0)


def christoffel_generic(man, x):
    """Levi-Civita coefficients as a nested list, evaluable on dual points."""
    n = man.dim
    g = man.metric(x)
    gi = algebra.inv(g)
    dg = jacobian(man.metric, x)  # dg[l][i][j] = d_l g_ij
    gamma = algebra.zeros(n, n, n)
    axes = range(n)
    for k in axes:
        gi_k, gamma_k = gi[k], gamma[k]
        for i in axes:
            dg_i = dg[i]
            for j in range(i, n):
                dg_ij, dg_ji = dg_i[j], dg[j][i]
                acc = 0.0
                for l in axes:
                    acc = acc + gi_k[l] * (dg_ij[l] + dg_ji[l] - dg[l][i][j])
                acc = 0.5 * acc
                gamma_k[i][j] = acc
                gamma_k[j][i] = acc
    return gamma


def affine_gamma_generic(man, params, x):
    """Coefficients of the connection ``params`` as a nested list."""
    n = man.dim
    gamma = christoffel_generic(man, x)
    if params.alpha == 0.0 and params.beta == 0.0:
        return gamma
    g = man.metric(x)
    gi = algebra.inv(g)
    du = jacobian(man.weight, x)
    grad_u = algebra.matvec(gi, du)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                term = params.beta * g[i][j] * grad_u[k]
                if k == j:
                    term = term + params.alpha * du[i]
                if k == i:
                    term = term + params.alpha * du[j]
                gamma[k][i][j] = gamma[k][i][j] + term
    return gamma


def connection_coeffs(man, params, x):
    """Coefficients Gamma[k, i, j] of the connection ``params`` at ``x``."""
    return np.array(affine_gamma_generic(man, params, man.point(x)),
                    dtype=float)


def covariant_derivative(man, gamma, X, Y, x):
    """(D_X Y)^k at ``x`` for connection coefficients ``gamma`` (nested list)."""
    n = man.dim
    xv = X(list(x))
    yv = Y(list(x))
    dY = jacobian(Y, x)  # dY[i][k] = d_i Y^k
    out = []
    for k in range(n):
        acc = 0.0
        for i in range(n):
            term = dY[i][k]
            for j in range(n):
                term = term + gamma[k][i][j] * yv[j]
            acc = acc + xv[i] * term
        out.append(acc)
    return out


def duality_residual(man, params, x, X, Y, Z, perturb=0.0):
    """Defect of the dual-pairing identity for the conformal metric.

    Checks X(gbar(Y,Z)) = gbar(D_X Y, Z) + gbar(Y, D*_X Z) with
    gbar = e^{(alpha-beta)u} g.  ``perturb`` adds an offset to one dual
    coefficient entry so tests can confirm the residual is sensitive.
    """
    x = man.point(x)
    e = params.conformal_exponent

    def pairing(z):
        g = man.metric(z)
        return exp(e * man.weight(z)) * algebra.quadratic_form(g, Y(z), Z(z))

    lhs = algebra.dot(X(x), jacobian(pairing, x))
    gamma_w = affine_gamma_generic(man, params, x)
    gamma_d = affine_gamma_generic(man, params.dual(), x)
    if perturb:
        gamma_d[0][0][0] = gamma_d[0][0][0] + perturb
    dxy = covariant_derivative(man, gamma_w, X, Y, x)
    dxz = covariant_derivative(man, gamma_d, X, Z, x)
    g = man.metric(x)
    conf = exp(e * man.weight(x))
    rhs = conf * (algebra.quadratic_form(g, dxy, Z(x))
                  + algebra.quadratic_form(g, Y(x), dxz))
    return abs(lhs - rhs)


def _conformal_metric(man, params, z):
    g = man.metric(z)
    c = exp(params.conformal_exponent * man.weight(z))
    return [[c * e for e in row] for row in g]


def amari_chentsov(man, params, x):
    """Cubic tensor C[i, j, k] = (D_i gbar)(e_j, e_k), from coefficients."""
    x = man.point(x)
    n = man.dim
    gamma = affine_gamma_generic(man, params, x)
    gbar = _conformal_metric(man, params, x)
    dgbar = jacobian(lambda z: _conformal_metric(man, params, z), x)
    c = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = dgbar[i][j][k]
                for m in range(n):
                    acc = acc - gbar[m][k] * gamma[m][i][j] - gbar[j][m] * gamma[m][i][k]
                c[i, j, k] = acc
    return c


def amari_chentsov_closed_form(man, params, x):
    """Fully symmetric closed form -(alpha+beta) * sym(du (x) gbar).

    Slots as in :func:`amari_chentsov`: C[i, j, k].
    """
    x = man.point(x)
    n = man.dim
    du = jacobian(man.weight, x)
    gbar = _conformal_metric(man, params, x)
    s = -(params.alpha + params.beta)
    c = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i, j, k] = s * (du[i] * gbar[j][k]
                                  + du[k] * gbar[i][j]
                                  + du[j] * gbar[i][k])
    return c


def equiaffine_residual(man, params, x, X, tau_shift=0.0):
    """Defect of parallelism of the volume form V^tau sqrt(det g) dx.

    Computed in the coordinate frame: (D_X mu)(e_1,...,e_n) =
    X(mu(e_1..e_n)) - sum_i mu(e_1,...,D_X e_i,...,e_n).  ``tau_shift``
    offsets the exponent for sensitivity tests.
    """
    x = man.point(x)
    n = man.dim
    tau = params.tau(n) + tau_shift

    def density(z):
        return exp(tau * man.weight(z)) * sqrt(algebra.det(man.metric(z)))

    xv = X(x)
    deriv = algebra.dot(xv, jacobian(density, x))
    gamma = affine_gamma_generic(man, params, x)
    trace = 0.0
    for j in range(n):
        for i in range(n):
            trace = trace + xv[j] * gamma[i][j][i]
    return abs(deriv - density(x) * trace)
