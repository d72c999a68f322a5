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
from .dual import exp, jacobian, sqrt, value
from .tensors import LOWER, UPPER, TensorValue

LEVI_CIVITA = WeightParams(0.0, 0.0)


def christoffel_generic(man, x):
    """Levi-Civita coefficients as a nested list, evaluable on dual points."""
    n = man.dim
    g = man.metric(x)
    gi = algebra.inv(g)
    dg = jacobian(man.metric, x)  # dg[l][i][j] = d_l g_ij
    gamma = algebra.zeros(n, n, n)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = 0.0
                for l in range(n):
                    acc = acc + gi[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                acc = 0.5 * acc
                gamma[k][i][j] = acc
                gamma[k][j][i] = acc
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
    man.require_admissible(x)
    gamma = affine_gamma_generic(man, params, list(x))
    return TensorValue(value(gamma), (UPPER, LOWER, LOWER))


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
    man.require_admissible(x)
    e = params.conformal_exponent

    def pairing(z):
        g = man.metric(z)
        return exp(e * man.weight(z)) * algebra.quadratic_form(g, Y(z), Z(z))

    lhs = 0.0
    for xi, d in zip(X(list(x)), jacobian(pairing, x)):
        lhs = lhs + xi * d

    gamma_w = affine_gamma_generic(man, params, list(x))
    gamma_d = affine_gamma_generic(man, params.dual(), list(x))
    if perturb:
        gamma_d[0][0][0] = gamma_d[0][0][0] + perturb
    dxy = covariant_derivative(man, gamma_w, X, Y, x)
    dxz = covariant_derivative(man, gamma_d, X, Z, x)
    g = man.metric(list(x))
    conf = exp(e * man.weight(list(x)))
    rhs = conf * (algebra.quadratic_form(g, dxy, Z(list(x)))
                  + algebra.quadratic_form(g, Y(list(x)), dxz))
    return abs(value(lhs) - value(rhs))


def _conformal_metric(man, params, z):
    g = man.metric(z)
    c = exp(params.conformal_exponent * man.weight(z))
    return [[c * e for e in row] for row in g]


def amari_chentsov(man, params, x):
    """Cubic tensor C(X,Y,Z) = (D_X gbar)(Y,Z), computed from coefficients."""
    man.require_admissible(x)
    n = man.dim
    gamma = affine_gamma_generic(man, params, list(x))
    gbar = _conformal_metric(man, params, list(x))
    dgbar = jacobian(lambda z: _conformal_metric(man, params, z), x)
    c = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = dgbar[i][j][k]
                for m in range(n):
                    acc = acc - gbar[m][k] * gamma[m][i][j] - gbar[j][m] * gamma[m][i][k]
                c[i, j, k] = value(acc)
    return TensorValue(c, (LOWER, LOWER, LOWER))


def amari_chentsov_closed_form(man, params, x):
    """Fully symmetric closed form -(alpha+beta) * sym(du (x) gbar)."""
    man.require_admissible(x)
    n = man.dim
    du = value(jacobian(man.weight, list(x)))
    gbar = value(_conformal_metric(man, params, list(x)))
    s = -(params.alpha + params.beta)
    c = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i, j, k] = s * (du[i] * gbar[j][k]
                                  + du[k] * gbar[i][j]
                                  + du[j] * gbar[i][k])
    return TensorValue(c, (LOWER, LOWER, LOWER))


def equiaffine_residual(man, params, x, X, tau_shift=0.0):
    """Defect of parallelism of the volume form V^tau sqrt(det g) dx.

    Computed in the coordinate frame: (D_X mu)(e_1,...,e_n) =
    X(mu(e_1..e_n)) - sum_i mu(e_1,...,D_X e_i,...,e_n).  ``tau_shift``
    offsets the exponent for sensitivity tests.
    """
    man.require_admissible(x)
    n = man.dim
    tau = params.tau(n) + tau_shift

    def density(z):
        return exp(tau * man.weight(z)) * sqrt(algebra.det(man.metric(z)))

    xv = X(list(x))
    deriv = 0.0
    for xi, d in zip(xv, jacobian(density, x)):
        deriv = deriv + xi * d

    gamma = affine_gamma_generic(man, params, list(x))
    trace = 0.0
    for j in range(n):
        for i in range(n):
            trace = trace + xv[j] * gamma[i][j][i]
    return abs(value(deriv) - value(density(list(x)) * trace))
