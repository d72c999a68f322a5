"""Discrete weighted Laplacian eigenproblems on closed hypersurfaces.

The induced weighted Laplacian on an m-dimensional hypersurface reads

    Lap^D_S psi = V^{beta-alpha} (Lap_S psi + (m alpha + 2 beta)
                                   g(grad_S u, grad_S psi)).

Multiplying the eigenvalue equation by V^{alpha-beta} w chi with
w = V^{m alpha + 2 beta} and integrating by parts gives the symmetric
weak form

    int_S w g(grad psi, grad chi) = lambda int_S w V^{alpha-beta} psi chi,

which is what :func:`assemble` discretizes with piecewise-linear elements
and cell-averaged weights.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .algebra import det, dot, inv
from .curvature import curvature_bound_scan
from .errors import (DegenerateCell, GeometryError, MeshNotTwoDim,
                     NonpositiveK, NotDMinimal, SingularSystem,
                     SolverNoConvergence)
from .meshes import SurfaceMesh, disk_prolongation
from .operators import D_MINIMAL_TOL, d_minimal_residual

# Below this many vertices dense eigh beats shift-invert Lanczos.
DENSE_CUTOFF = 300
PCG_RTOL, PCG_MAX_ITER = 1e-13, 100


@dataclass
class SpectralProblem:
    """Stiffness/mass pair of the weighted eigenproblem on a mesh."""

    stiffness: scipy.sparse.csr_matrix
    mass: scipy.sparse.csr_matrix
    mesh: object

    @property
    def size(self):
        return self.stiffness.shape[0]


def _p1_kernel(mesh):
    """Cell measures and local P1 stiffness of a k-simplex mesh (Dziuk 1988).

    G is the Gram matrix of each cell's edges at its vertex 0; the measure
    is sqrt(det G) / k! and the stiffness measure * D G^-1 D^T, with
    D = [-1 ... -1; I] the barycentric gradients.  Each entry sums over the
    (a, b) pairs in row order, which keeps the triangle matrices bit for bit
    those of the written-out closed form.
    """
    v, cells = mesh.vertices, mesh.cells
    k = cells.shape[1] - 1
    edges = [v[cells[:, a + 1]] - v[cells[:, 0]] for a in range(k)]
    gram = [[np.einsum("ij,ij->i", ea, eb) for eb in edges] for ea in edges]
    det_g = det(gram)
    if not np.min(det_g) > 0:  # a non-finite vertex fails this too
        raise DegenerateCell(f"{k}-cell with vanishing or non-finite measure")
    measure = np.sqrt(det_g) / math.factorial(k)
    g_inv = inv(gram)
    d = [[-1.0] * k] + np.eye(k).tolist()
    pairs = [(a, b) for a in range(k) for b in range(k)]
    local = np.empty((len(cells), k + 1, k + 1))
    for i, j in np.ndindex(k + 1, k + 1):
        local[:, i, j] = dot([d[i][a] * g_inv[a][b] for a, b in pairs],
                             [d[j][b] for a, b in pairs]) * measure
    return measure, local


def _mass(mesh, measure, exponent):
    """P1 mass weighted by V^exponent: measure * (1 + I)/((k+1)(k+2))."""
    k = mesh.cell_dim
    table = (1.0 + np.eye(k + 1)) / ((k + 1) * (k + 2))
    return _scatter(mesh, measure[:, None, None] * table, exponent)


def _scatter(mesh, local, exponent):
    """Global matrix of the local ones, each scaled in place by V^exponent
    with u averaged over its cell's vertices."""
    w = np.exp(exponent * np.mean(mesh.u[mesh.cells], axis=1))
    if not np.all(np.isfinite(w)):
        raise GeometryError(f"non-finite weight V^{exponent} on "
                            f"{np.sum(~np.isfinite(w))} cells")
    local *= w[:, None, None]
    cells = mesh.cells.astype(np.int32)
    k, size = cells.shape[1], len(mesh.vertices)
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    return scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                   shape=(size, size)).tocsr()


def assemble(mesh, params):
    """Weighted stiffness/mass pair for the hypersurface eigenproblem."""
    stiff_exp = params.energy_exponent(mesh.cell_dim)
    measure, local = _p1_kernel(mesh)
    a = _scatter(mesh, local, stiff_exp)
    b = _mass(mesh, measure, stiff_exp + params.alpha - params.beta)
    return SpectralProblem(stiffness=a, mass=b, mesh=mesh)


def _nested_dissection(mesh):
    """Nested-dissection order of the vertices (George 1973).

    The graph is the mesh's edge graph, the sparsity pattern of the P1
    matrices.  The domains are those of a k-d bisection of the vertex
    coordinates at midpoints, cycling through the axes, i.e. the prefixes
    of each vertex's Morton code.  At each cut, the low-side vertices with
    a neighbour on the high side form the separator.  The order is
    post-order: both halves first, then the separator.
    """
    pts = mesh.vertices.T.copy()
    dim, size = pts.shape
    bits = int(np.ceil(np.log2(size) / dim)) + 1  # cuts per axis
    depth = bits * dim
    lo = pts.min(axis=1, keepdims=True)
    span = np.ptp(pts, axis=1, keepdims=True)
    cell = np.floor((pts - lo) / np.where(span > 0, span, 1.0) * 2 ** bits)
    cell = np.minimum(cell.astype(np.int64), 2 ** bits - 1)
    code = np.zeros(size, dtype=np.int64)
    for b in range(bits - 1, -1, -1):
        for axis in range(dim):
            code = (code << 1) | ((cell[axis] >> b) & 1)
    corners = mesh.cells.T.copy()
    ends = np.triu_indices(len(corners), 1)
    i, j = corners[ends[0]].ravel(), corners[ends[1]].ravel()
    ci, cj = code[i], code[j]
    low, high = np.where(ci < cj, i, j), np.where(ci < cj, j, i)
    # The first cut an edge crosses is its endpoints' first differing
    # digit (depth for none); frexp reads it exactly while depth <= 53.
    first = depth - np.frexp((ci ^ cj).astype(float))[1]
    by_cut = np.argsort(first.astype(np.int8), kind="stable")
    low, high, first = low[by_cut], high[by_cut], first[by_cut]
    # level[v] is the cut whose separator holds v, or depth for none.  An
    # edge whose endpoints are both still free at its first cut crosses it.
    level = np.full(size, depth)
    bounds = np.searchsorted(first, np.arange(depth + 1))
    for d in range(depth):
        v, w = low[bounds[d]:bounds[d + 1]], high[bounds[d]:bounds[d + 1]]
        level[v[(level[v] > d) & (level[w] > d)]] = d
    # A separator sorts after every vertex of its domain: its code with the
    # digits below its level set to one, and after deeper levels on a tie
    # (depth - level fits the low 6 bits).
    key = code | ((np.int64(1) << (depth - level)) - 1)
    return np.argsort((key << 6) | (depth - level), kind="stable")


def eigenvalues(prob, count=6):
    """Smallest ``count`` eigenvalues of the generalized pair (A, B).

    Dense below ``DENSE_CUTOFF`` vertices, shift-invert Lanczos from there.
    """
    a, b = prob.stiffness, prob.mass
    n = prob.size
    if n < DENSE_CUTOFF:
        # The whole spectrum, then the slice: a bisection subset stops at
        # about eps * ||A||, so its lowest values would depend on ``count``.
        try:
            vals = scipy.linalg.eigh(a.toarray(), b.toarray(),
                                     eigvals_only=True)
        except np.linalg.LinAlgError as err:
            raise SingularSystem(f"dense eigensolve: {err}") from err
        return vals[:count]
    # tr A / tr B grows like n^(2/d); dividing that out puts the shift at the
    # scale of the lowest eigenvalues, where 1/(lambda - sigma) separates them.
    sigma = -0.1 * (a.diagonal().sum() / b.diagonal().sum()) / n ** (
        2.0 / prob.mesh.cell_dim)
    # A - sigma B is SPD, so in nested-dissection order its LU needs no
    # column ordering and no pivoting: the diagonal is a stable pivot.
    order = _nested_dissection(prob.mesh)
    rank = np.argsort(order)
    try:
        lu = scipy.sparse.linalg.splu(
            (a - sigma * b)[order][:, order].tocsc(), permc_spec="NATURAL",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SingularSystem(str(err)) from err
    opinv = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(x[order])[rank], dtype=float)
    # Fixed start vector keeps the Lanczos iteration fully deterministic.
    v0 = 1.5 + np.sin(np.arange(n, dtype=float))
    try:
        vals = scipy.sparse.linalg.eigsh(a, k=count, M=b, sigma=sigma,
                                         which="LM", return_eigenvectors=False,
                                         maxiter=2000, v0=v0, OPinv=opinv)
    except scipy.sparse.linalg.ArpackNoConvergence as err:
        raise SolverNoConvergence(
            "shift-invert Lanczos did not converge") from err
    return np.sort(vals)


def smallest_nonzero_eigenvalue(prob):
    """First nonzero eigenvalue, read from the two lowest eigenpairs.

    The lowest is the constant mode; it must vanish against
    max(|lambda_1|, 1), or the solve is refused.
    """
    vals = eigenvalues(prob, count=min(2, prob.size))
    scale = max(abs(vals[-1]), 1.0)
    if abs(vals[0]) > 1e-6 * scale:
        raise SolverNoConvergence(
            f"constant kernel mode missing: smallest eigenvalue {vals[0]}")
    return float(vals[1])


# ---------------------------------------------------------------------------
# Harmonic extension on 2-dimensional regions and the bound's proof-chain
# inequality.


def _multigrid(mesh, a, ids):
    """V-cycle for the block ``a`` on ``mesh``'s interior ``ids``: levels
    P^T A P of the disk_mesh ring prolongation down to level 0 (each with
    the interior first), and two damped Jacobi sweeps before and after each
    correction; level 0, or the one level of a mesh without one, is only
    smoothed."""
    levels = []
    for level in range(mesh.level or 0, -1, -1):
        diag = a.diagonal()
        if not np.all(diag > 0):  # as an SPD block's must be
            raise SingularSystem("interior block has a nonpositive diagonal")
        # Damping 4 / (3 rho) with rho(D^-1 A) from ten power steps.
        inv_diag = 1.0 / diag
        x = y = 1.5 + np.sin(np.arange(len(ids), dtype=float))
        for _ in range(10):
            x, y = inv_diag * (a @ x), x
        rho = np.sqrt(np.sum(x * x) / np.sum(y * y))
        w = 4.0 / (3.0 * rho) * inv_diag
        if level == 0:
            levels.append((a, None, None, w))
            break
        p, nested = disk_prolongation(level)
        coarse = np.searchsorted(nested, len(ids))
        p = p[:len(ids), :coarse]
        levels.append((a, p, p.T.tocsr(), w))
        a, ids = levels[-1][2] @ a @ p, ids[nested[:coarse]]
    return lambda r: _vcycle(levels, r)


def _vcycle(levels, r, depth=0):
    """One V-cycle of :func:`_multigrid`'s ``levels`` applied to ``r``."""
    a, p, pt, w = levels[depth]
    x = w * r
    x += w * (r - a @ x)
    if p is not None:
        x += p @ _vcycle(levels, pt @ (r - a @ x), depth + 1)
    x += w * (r - a @ x)
    return x + w * (r - a @ x)


def _pcg(a, b, precond):
    """PCG from zero to ||r|| <= PCG_RTOL ||b||; reductions are np.sum."""
    x, r, p, rz = np.zeros_like(b), b.copy(), np.zeros_like(b), 1.0
    stop = PCG_RTOL * np.sqrt(np.sum(b * b))
    for step in range(PCG_MAX_ITER + 1):
        norm = np.sqrt(np.sum(r * r))
        if np.isfinite(norm) and norm <= stop:
            return x
        if step == PCG_MAX_ITER or not np.isfinite(norm):
            raise SolverNoConvergence(f"PCG residual {norm} at step {step}")
        z = precond(r)
        rz, rz_old = np.sum(r * z), rz
        p = z + (rz / rz_old) * p
        ap = a @ p
        alpha = rz / np.sum(p * ap)
        x, r = x + alpha * p, r - alpha * ap


def harmonic_extension_2d(mesh, params, boundary_values):
    """Solve the weighted-harmonic Dirichlet problem on a triangle mesh.

    The interior equation Lap^D phi = 0 on a 2-dimensional region is the
    divergence form div(V^{2 alpha + 2 beta} grad phi) = 0; Dirichlet data,
    one finite value per ``mesh.boundary_loop`` vertex, is imposed exactly.
    PCG with a multigrid V-cycle solves the SPD interior block.
    """
    if mesh.cell_dim != 2:
        raise MeshNotTwoDim("harmonic extension needs a triangle mesh")
    if mesh.boundary_loop is None:
        raise MeshNotTwoDim("mesh has no boundary loop")
    boundary = np.asarray(mesh.boundary_loop)
    psi = np.asarray(boundary_values, dtype=float)
    if psi.shape != boundary.shape or not np.all(np.isfinite(psi)):
        raise ValueError(f"need {len(boundary)} finite boundary values")
    a = _scatter(mesh, _p1_kernel(mesh)[1], params.energy_exponent(2))
    interior = np.delete(np.arange(len(mesh.vertices)), boundary)
    aii = a[interior][:, interior]
    phi = np.zeros(len(mesh.vertices))
    phi[boundary] = psi
    if len(interior):
        phi[interior] = _pcg(aii, -a[interior][:, boundary] @ psi,
                             _multigrid(mesh, aii, interior))
    return phi, a


def _boundary_mesh(mesh):
    """The boundary loop as a closed segment mesh: loop vertex i to i + 1."""
    loop = np.asarray(mesh.boundary_loop)
    ids = np.arange(len(loop))
    return SurfaceMesh(vertices=mesh.vertices[loop], u=mesh.u[loop],
                       cells=np.stack([ids, np.roll(ids, -1)], axis=-1))


def recover_normal_flux(mesh, a, phi):
    """Variationally consistent V^w phi_nu at boundary vertices.

    The stiffness residual (A phi) restricted to boundary rows represents
    chi -> int_bnd V^w phi_nu chi; dividing by the boundary lumped mass,
    the row sums of the loop's P1 mass, recovers nodal phi_nu values times
    the stiffness weight.
    """
    ring = _boundary_mesh(mesh)
    lumped = _mass(ring, _p1_kernel(ring)[0], 0.0) @ np.ones(len(ring.u))
    return np.asarray(a @ phi)[mesh.boundary_loop] / lumped


def proof_chain_inequality(mesh, params, boundary_values, k_constant):
    """Evaluate the intermediate inequality of the eigenvalue bound's proof.

    Returns the quantity Q = K * E - 2 T, where E is the weighted Dirichlet
    energy of the harmonic extension and T the tangential pairing of the
    boundary data with the weighted normal flux; the second-fundamental
    boundary term vanishes on the geodesic boundaries used here.  The
    inequality asserts Q <= 0; ``positive_scale`` normalizes the tolerance.
    """
    phi, a = harmonic_extension_2d(mesh, params, boundary_values)
    energy = float(np.sum(phi * (a @ phi)))

    ring = _boundary_mesh(mesh)
    flux_w = recover_normal_flux(mesh, a, phi)          # V^{2a+2b} phi_nu
    phi_nu = flux_w * np.exp(-params.energy_exponent(2) * ring.u)
    h = np.exp(params.beta * ring.u) * phi_nu           # V^beta phi_nu
    psi = np.asarray(boundary_values, dtype=float)
    # T = psi^T K h, K the loop's P1 stiffness weighted by V^{tau+beta-2alpha}.
    k_bnd = _scatter(ring, _p1_kernel(ring)[1],
                     params.tau(2) + params.beta - 2.0 * params.alpha)
    t_pairing = float(np.sum(psi * (k_bnd @ h)))

    quantity = k_constant * energy - 2.0 * t_pairing
    positive_scale = k_constant * energy + 2.0 * abs(t_pairing)
    return {"quantity": quantity, "energy": energy, "pairing": t_pairing,
            "positive_scale": positive_scale}


# ---------------------------------------------------------------------------
# Eigenvalue-bound certificate.


@dataclass(frozen=True)
class Certificate:
    """Outcome of the first-eigenvalue lower-bound check on one scenario."""

    k_best: float
    lambda1: float
    margin: float
    tolerance: float
    passed: bool
    d_minimal_residual: float


def choi_wang_certificate(man, params, hypersurface, mesh):
    """Certify lambda_1 >= K/2 on a D-minimal hypersurface scenario.

    ``mesh`` must discretize ``hypersurface`` with vertex weights already
    sampled from the ambient weight.
    """
    dmin = d_minimal_residual(hypersurface, params)
    if not dmin <= D_MINIMAL_TOL:  # a NaN residual certifies nothing
        raise NotDMinimal(f"max |H^D| = {dmin} is not within {D_MINIMAL_TOL}")
    report = curvature_bound_scan(man, params)
    if report.k_best <= 0.0:
        raise NonpositiveK(f"scan found K = {report.k_best}")
    prob = assemble(mesh, params)
    lam1 = smallest_nonzero_eigenvalue(prob)
    tol = 1e-3 * report.k_best
    margin = lam1 - report.k_best / 2.0
    return Certificate(k_best=report.k_best, lambda1=lam1, margin=margin,
                       tolerance=tol, passed=margin >= -tol,
                       d_minimal_residual=dmin)
