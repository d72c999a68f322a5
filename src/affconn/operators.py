"""Affine differential operators and hypersurface extrinsic geometry.

Scalar operators follow the weighted definitions (V = e^u):

    grad^D f = V^{beta-alpha} grad f
    Hess^D f = V^{beta-alpha} (Hess f + beta du (x) df + beta df (x) du
                               + alpha g(grad u, grad f) g)
    Lap^D f  = V^{beta-alpha} (Lap f + (m alpha + 2 beta) g(grad u, grad f))

with m the dimension the operator acts on (the ambient dimension, or the
hypersurface dimension for induced operators).  The boundary integral
identity relating bulk Bochner-type terms to second-fundamental-form
terms is verified by tensor-product Gauss quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .connections import christoffel_generic
from .curvature import ricci_generic, scalar_hessian_lc
from .dual import exp, floats, jacobian, sqrt
from .errors import DegenerateJacobian


def hess_D_generic(man, params, phi, x):
    """Affine Hessian as a nested list; evaluable on dual/array points."""
    n = man.dim
    g = man.metric(list(x))
    gi = algebra.inv(g)
    hess = scalar_hessian_lc(man, phi, list(x))
    du = jacobian(man.weight, list(x))
    dphi = jacobian(phi, list(x))
    cross = algebra.quadratic_form(gi, du, dphi)
    scale = exp((params.beta - params.alpha) * man.weight(list(x)))
    a, b = params.alpha, params.beta
    out = algebra.zeros(n, n)
    for i in range(n):
        for j in range(n):
            out[i][j] = scale * (hess[i][j]
                                 + b * (du[i] * dphi[j] + dphi[i] * du[j])
                                 + a * cross * g[i][j])
    return out


def lap_D_generic(man, params, phi, x):
    """Affine Laplacian as a generic scalar; evaluable on dual/array points."""
    n = man.dim
    g = man.metric(list(x))
    gi = algebra.inv(g)
    hess = scalar_hessian_lc(man, phi, list(x))
    du = jacobian(man.weight, list(x))
    dphi = jacobian(phi, list(x))
    lap = 0.0
    for i in range(n):
        for j in range(n):
            lap = lap + gi[i][j] * hess[i][j]
    drift = algebra.quadratic_form(gi, du, dphi)
    scale = exp((params.beta - params.alpha) * man.weight(list(x)))
    return scale * (lap + params.energy_exponent(n) * drift)


# ---------------------------------------------------------------------------
# Hypersurfaces.


@dataclass(frozen=True)
class Hypersurface:
    """Parametrized codimension-1 submanifold of a chart.

    ``embedding`` maps a parameter point (length ``ambient.dim - 1``) to
    ambient chart coordinates and must be evaluable on lifted parameters.
    ``orientation`` flips the unit normal; scenario builders pick the sign
    that makes it outward for the region they bound.
    """

    ambient: object
    lower: tuple
    upper: tuple
    periodic: tuple
    embedding: object
    orientation: float = 1.0

    @property
    def pdim(self):
        return self.ambient.dim - 1


def _normal_generic(hyp, s):
    """Unit normal in ambient components at parameter point ``s``."""
    n = hyp.ambient.dim
    x = hyp.embedding(list(s))
    g = hyp.ambient.metric(x)
    tangents = jacobian(hyp.embedding, list(s))
    if n == 2:
        t = tangents[0]
        w = [t[1], -t[0]]
    elif n == 3:
        w = algebra.cross(tangents[0], tangents[1])
    else:
        raise DegenerateJacobian(f"normal computation unsupported for dim {n}")
    nu = algebra.matvec(algebra.inv(g), w)
    norm = algebra.norm(g, nu)
    return [hyp.orientation * c / norm for c in nu]


@dataclass(frozen=True)
class ExtrinsicData:
    """Second fundamental form and mean curvature, plain and affine."""

    induced_metric: np.ndarray
    second_fundamental: np.ndarray   # II(X_a, X_b) = g(nabla_{X_a} nu, X_b)
    mean_curvature: float
    second_fundamental_affine: np.ndarray
    mean_curvature_affine: float
    normal_weight_derivative: float  # du(nu)


def _extrinsic_generic(hyp, params, s):
    """Induced metric, II, H, affine II^D and H^D, and du(nu) at ``s``."""
    n = hyp.ambient.dim
    m = hyp.pdim
    man = hyp.ambient
    x = hyp.embedding(list(s))
    g = man.metric(x)
    tangents = jacobian(hyp.embedding, list(s))
    # Gram matrix of the pushforward = induced metric on parameters.
    gs = [[algebra.quadratic_form(g, tangents[a], tangents[b])
           for b in range(m)] for a in range(m)]
    # Ambient covariant derivative of the unit normal along each tangent.
    dnu = jacobian(lambda z: _normal_generic(hyp, z), list(s))
    nu = _normal_generic(hyp, s)
    gamma = christoffel_generic(man, x)
    two_ff = algebra.zeros(m, m)
    for a in range(m):
        cov = []
        for k in range(n):
            acc = dnu[a][k]
            for i in range(n):
                for j in range(n):
                    acc = acc + gamma[k][i][j] * tangents[a][i] * nu[j]
            cov.append(acc)
        for b in range(m):
            two_ff[a][b] = algebra.dot(algebra.matvec(g, cov), tangents[b])
    gs_inv = algebra.inv(gs)
    h = 0.0
    for a in range(m):
        for b in range(m):
            h = h + gs_inv[a][b] * two_ff[a][b]
    du = jacobian(man.weight, x)
    u_nu = algebra.dot(du, nu)
    # II^D = II - beta du(nu) g_s and H^D = H + (n-1) alpha du(nu).
    ii_aff = [[two_ff[a][b] - params.beta * u_nu * gs[a][b]
               for b in range(m)] for a in range(m)]
    h_aff = h + (n - 1) * params.alpha * u_nu
    return gs, two_ff, h, ii_aff, h_aff, u_nu


def _full_rank(gs):
    """``matrix_rank(gs, tol=1e-10) == len(gs)`` for a symmetric Gram matrix
    of size 0 to 2, in closed form: |det| over the largest singular value
    exceeds 1e-10; an inf or NaN makes the largest inf or NaN, so it fails."""
    if len(gs) < 2:
        return all(1e-10 < abs(row[0]) < math.inf for row in gs)
    (a, b), (_, c) = gs
    largest = abs(0.5 * (a + c)) + math.hypot(0.5 * (a - c), b)
    return abs(a * c - b * b) > 1e-10 * largest


def second_fundamental(hyp, params, s):
    """Extrinsic data of the hypersurface at parameter point ``s``."""
    # A rank-deficient Jacobian divides by a zero normal: Python floats
    # raise, numpy scalars give inf/nan that the rank check below catches.
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            gs, ii, h, ii_aff, h_aff, u_nu = _extrinsic_generic(hyp, params,
                                                               floats(s))
        full_rank = _full_rank(gs)
    except ZeroDivisionError:
        full_rank = False
    if not full_rank:
        raise DegenerateJacobian(f"embedding Jacobian rank deficient or not "
                                 f"finite at {tuple(s)}")
    return ExtrinsicData(induced_metric=np.array(gs),
                         second_fundamental=np.array(ii),
                         mean_curvature=float(h),
                         second_fundamental_affine=np.array(ii_aff),
                         mean_curvature_affine=float(h_aff),
                         normal_weight_derivative=float(u_nu))


# Parameter grid points per axis for the D-minimality residual.
GRID_PER_AXIS = 32


def _param_grid(hyp):
    axes = []
    for a in range(hyp.pdim):
        lo, hi = hyp.lower[a], hyp.upper[a]
        if hyp.periodic[a]:
            pts = np.linspace(lo, hi, GRID_PER_AXIS, endpoint=False)
        else:
            pts = np.linspace(lo, hi, GRID_PER_AXIS + 2)[1:-1]
        axes.append(pts)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def d_minimal_residual(hyp, params):
    """max |H^D| over a parameter grid; ~0 certifies D-minimality.  A NaN
    at any grid point is the result."""
    return float(np.max([abs(second_fundamental(hyp, params, s)
                             .mean_curvature_affine)
                         for s in _param_grid(hyp)]))


# ---------------------------------------------------------------------------
# Regions and the integral identity.


@dataclass(frozen=True)
class DomainRegion:
    """Coordinate sub-box of a chart, with its boundary hypersurface."""

    ambient: object
    lower: tuple
    upper: tuple
    boundary: Hypersurface


# Reference quadrature of the integral identity: cells per axis (bulk and
# boundary) and Gauss points per cell per axis.
QUAD_GRID = 24
QUAD_ORDER = 8


def _gauss_axis(lo, hi, cells, order):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, cells + 1)
    h = np.diff(edges)
    nodes = (edges[:-1, None] + 0.5 * h[:, None] * (xg[None, :] + 1.0)).ravel()
    weights = (0.5 * h[:, None] * wg[None, :]).ravel()
    return nodes, weights


def box_quadrature(lower, upper, grid, order):
    """Tensor-product nodes (list of coord arrays) and combined weights."""
    axes, wts = [], []
    for lo, hi in zip(lower, upper):
        nodes, weights = _gauss_axis(lo, hi, grid, order)
        axes.append(nodes)
        wts.append(weights)
    mesh = np.meshgrid(*axes, indexing="ij")
    wmesh = np.meshgrid(*wts, indexing="ij")
    coords = [m.ravel() for m in mesh]
    weights = np.ones_like(coords[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return coords, weights


@dataclass(frozen=True)
class IntegralIdentityResult:
    lhs: float
    rhs: float
    residual: float


def _bulk_integrand(region, params, phi, coords):
    """V^tau ((Lap^D phi)^2 - |Hess^D phi|^2_g - Ric^D(grad^D, grad^D))."""
    man = region.ambient
    n = man.dim
    x = list(coords)
    g = man.metric(x)
    gi = algebra.inv(g)
    u = man.weight(x)
    scale = exp((params.beta - params.alpha) * u)
    # The Ricci term first, while little else is alive: a lower peak.
    grad_d = [scale * c for c in algebra.matvec(gi, jacobian(phi, x))]
    ric_term = algebra.quadratic_form(ricci_generic(man, params, x), grad_d,
                                      grad_d)

    lap = lap_D_generic(man, params, phi, x)
    hess = hess_D_generic(man, params, phi, x)
    # g-Frobenius norm squared of the affine Hessian.
    hess_up = [[sum(gi[i][a] * hess[a][b] * gi[b][j] for a in range(n) for b in range(n))
                for j in range(n)] for i in range(n)]
    hess_sq = 0.0
    for i in range(n):
        for j in range(n):
            hess_sq = hess_sq + hess[i][j] * hess_up[i][j]

    vtau = exp(params.tau(n) * u)
    dens = sqrt(algebra.det(g))
    return vtau * (lap * lap - hess_sq - ric_term) * dens


def _boundary_integrand(region, params, phi, svals):
    """Boundary terms of the identity, with the induced area density."""
    hyp = region.boundary
    man = region.ambient
    m = hyp.pdim
    tau = params.tau(man.dim)
    s = list(svals)
    at = hyp.embedding

    def u_of(sq):
        return man.weight(at(sq))

    def phi_of(sq):
        return phi(at(sq))

    def phi_nu_of(sq):
        x = at(sq)
        g = man.metric(x)
        gi = algebra.inv(g)
        dphi = jacobian(phi, x)
        nu = _normal_generic(hyp, sq)
        # g(grad phi, nu) = dphi_k nu^k since dphi is already covariant.
        return algebra.dot(dphi, nu)

    def vb_phi_nu_of(sq):
        return exp(params.beta * u_of(sq)) * phi_nu_of(sq)

    u = u_of(s)
    vtau = exp(tau * u)
    scale = exp((params.beta - params.alpha) * u)  # V^{beta-alpha}

    data_gs, _, _, ii_aff, h_aff, _ = _extrinsic_generic(hyp, params, s)
    gs_inv = algebra.inv(data_gs)

    # Tangential derivatives of boundary scalars, in parameter components.
    dpsi = jacobian(phi_of, s)
    dflux = jacobian(vb_phi_nu_of, s)
    phi_nu = phi_nu_of(s)

    # Raise one slot with the induced metric for the pairings below.
    dpsi_up = algebra.matvec(gs_inv, dpsi)

    term_h = h_aff * (scale * phi_nu) ** 2
    term_ii = 0.0
    for a in range(m):
        for b in range(m):
            term_ii = term_ii + ii_aff[a][b] * (scale * dpsi_up[a]) * (scale * dpsi_up[b])
    pairing = 0.0
    for a in range(m):
        pairing = pairing + dpsi_up[a] * dflux[a]
    term_mixed = 2.0 * exp(-params.beta * u) * scale * scale * pairing

    dens = sqrt(algebra.det(data_gs))
    return vtau * (term_h + term_ii - term_mixed) * dens


def reilly_residual(region, params, phi, grid=QUAD_GRID, order=QUAD_ORDER):
    """Both sides of the weighted integral identity and their mismatch."""
    coords, wts = box_quadrature(region.lower, region.upper, grid, order)
    lhs = float(np.sum(wts * _bulk_integrand(region, params, phi, coords)))
    hyp = region.boundary
    bcoords, bwts = box_quadrature(hyp.lower, hyp.upper, grid, order)
    rhs = float(np.sum(bwts * _boundary_integrand(region, params, phi, bcoords)))
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return IntegralIdentityResult(lhs=lhs, rhs=rhs, residual=residual)
