"""Reference oracles and fixtures that only the tests use.

Each one cross-checks the engine by an independent route (a spectral
collocation, an orthonormal-frame contraction, a facet count, the general
cofactor loop), or builds an input that no built-in scenario needs.
"""

import numpy as np
import scipy.sparse.linalg

from affconn import spectral
from affconn.algebra import det
from affconn.charts import eval_metric
from affconn.curvature import riemann_tensor
from affconn.errors import DegenerateCell
from affconn.meshes import cell_measures
from affconn.operators import _normal_generic
from affconn.scenarios import _REGISTRY

# --- dense algebra ---------------------------------------------------------


def slice_dot(u, v):
    """Dot product over ``zip`` of the tails, the reference for ``dot``."""
    out = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        out = out + a * b
    return out


def cofactor_inv(m):
    """Inverse by the general cofactor loop up to 3x3, the reference for
    ``inv``: each minor's determinant, then ``s / d`` or ``-s / d``."""
    n = len(m)
    d = det(m)
    if n == 1:
        return [[1.0 / d]]
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            s = det(minor)
            cof[j][i] = s / d if (i + j) % 2 == 0 else -s / d
    return cof


# --- derivatives -----------------------------------------------------------


def fd_derivative(field, x, multi_index, step=1e-3):
    """Partial derivative by nested 4th-order central differences with step
    ``step``, the independent cross-check of ``dual.derivative``."""
    f = field
    for axis in reversed(tuple(multi_index)):
        f = _fd_lift(f, axis, step)
    return f(list(x))


def _fd_lift(f, axis, h):
    def df(x):
        vals = []
        for k in (-2, -1, 1, 2):
            z = list(x)
            z[axis] = z[axis] + k * h
            vals.append(f(z))
        fm2, fm1, fp1, fp2 = vals
        return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    return df


# --- charts ----------------------------------------------------------------


def linear_weight(a, axis=0):
    """u = a * x_axis on flat charts."""
    def u(x):
        return a * x[axis]
    return u


def radial_weight(a):
    """u = a * r^2 / 2 on flat charts (r = Euclidean distance to the origin)."""
    def u(x):
        r2 = 0.0
        for c in x:
            r2 = r2 + c * c
        return a * r2 / 2.0
    return u


def orthonormal_frame(man, x):
    """Gram-Schmidt of the coordinate basis in axis order, frame as columns."""
    g = eval_metric(man, x)
    n = man.dim
    frame = np.zeros((n, n))
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        for j in range(i):
            v = v - (frame[:, j] @ g @ v) * frame[:, j]
        frame[:, i] = v / np.sqrt(v @ g @ v)
    return frame


def weighted_scenarios():
    """Built-in scenarios with a nontrivial weight, in registry order."""
    return [s for s in _REGISTRY.values() if s.weighted]


# --- curvature -------------------------------------------------------------


def ricci_frame_sum(man, x, params):
    """Ricci via the orthonormal-frame sum; cross-checks the trace form."""
    riem = riemann_tensor(man, x, params)
    frame = orthonormal_frame(man, x)
    g = eval_metric(man, x)
    return np.einsum("ai,bi,lb,lqap->pq", frame, frame, g, riem)


# --- regions and meshes ----------------------------------------------------


def validate_orientation(region, eps=1e-4):
    """Inward-offset test: x - eps*nu must stay inside the region's box."""
    boundary = region.boundary
    mid = [0.5 * (lo + hi) for lo, hi in zip(boundary.lower, boundary.upper)]
    x = boundary.embedding(mid)
    nu = _normal_generic(boundary, mid)
    for i in range(region.ambient.dim):
        xi = x[i] - eps * nu[i]
        if not region.ambient.periodic[i] and not (
                region.lower[i] - 1e-12 <= xi <= region.upper[i] + 1e-12):
            return False
    return True


def check_closed(mesh):
    """True iff every facet is shared by exactly two cells."""
    facets = {}
    for cell in mesh.cells:
        if mesh.cell_dim == 1:
            keys = [(cell[0],), (cell[1],)]
        else:
            keys = [tuple(sorted((cell[i], cell[(i + 1) % 3]))) for i in range(3)]
        for k in keys:
            facets[k] = facets.get(k, 0) + 1
    return all(count == 2 for count in facets.values())


def check_nondegenerate(mesh, tol=1e-14):
    measures = cell_measures(mesh)
    if np.min(measures) <= tol:
        raise DegenerateCell(f"smallest cell measure {np.min(measures)}")
    return True


# --- spectrum --------------------------------------------------------------


def force_path(monkeypatch, method):
    """Send every eigensolve down one path, ``"dense"`` or ``"iterative"``
    (shift-invert Lanczos), by moving ``spectral.DENSE_CUTOFF``."""
    monkeypatch.setattr(spectral, "DENSE_CUTOFF",
                        np.inf if method == "dense" else 0)


def dirichlet_lu(mesh, params, boundary_values):
    """Harmonic extension by one sparse LU of the interior block in scipy's
    default column order, the reference for the multigrid-preconditioned CG
    of ``harmonic_extension_2d``."""
    a = spectral._stiffness(mesh, params.energy_exponent(2))[0]
    size = len(mesh.vertices)
    boundary = np.asarray(mesh.boundary_loop)
    interior = np.setdiff1d(np.arange(size), boundary)
    phi = np.zeros(size)
    phi[boundary] = boundary_values
    rhs = -a[interior][:, boundary] @ phi[boundary]
    phi[interior] = scipy.sparse.linalg.splu(
        a[interior][:, interior].tocsc()).solve(rhs)
    return phi


# Fourier collocation of the non-symmetric weighted operator on a circle.
# Exponentially accurate for smooth weights, so FEM eigenvalues can be
# validated against it directly.


def _fourier_diff_matrices(count, length):
    h = 2.0 * np.pi / count
    j = np.arange(count)
    diff = j[:, None] - j[None, :]
    signs = np.where(diff % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.where(diff != 0, 0.5 * signs / np.tan(0.5 * h * diff), 0.0)
        d2 = np.where(diff != 0, -0.5 * signs / np.sin(0.5 * h * diff) ** 2,
                      -np.pi ** 2 / (3.0 * h ** 2) - 1.0 / 6.0)
    scale = 2.0 * np.pi / length
    return scale * d1, scale * scale * d2


def circle_collocation_eigenvalues(length, u_of_arclength, params, count=128,
                                   howmany=6):
    """Eigenvalues of the raw weighted operator on a circle of given length."""
    s = length * np.arange(count) / count
    d1, d2 = _fourier_diff_matrices(count, length)
    u = np.array([u_of_arclength(t) for t in s])
    du = d1 @ u
    coeff = params.alpha + 2.0 * params.beta  # m = 1
    scale = np.exp((params.beta - params.alpha) * u)
    op = -scale[:, None] * (d2 + du[:, None] * coeff * d1)
    vals = np.linalg.eigvals(op)
    vals = np.sort(vals.real[np.abs(vals.imag) < 1e-8 * (1 + np.max(np.abs(vals)))])
    return vals[:howmany]
