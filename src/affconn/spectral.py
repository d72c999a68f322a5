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

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .curvature import curvature_bound_scan
from .errors import (DegenerateCell, MeshNotTwoDim, NonpositiveK,
                     NotDMinimal, SingularSystem, SolverNoConvergence)
from .meshes import cell_measures, disk_prolongation
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


def _triangle_gradients(verts, cells):
    """Per-cell area and local stiffness for P1 elements on embedded triangles."""
    e1 = verts[cells[:, 1]] - verts[cells[:, 0]]
    e2 = verts[cells[:, 2]] - verts[cells[:, 0]]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    det = g11 * g22 - g12 * g12
    if np.min(det) <= 0:
        raise DegenerateCell("triangle with vanishing area")
    area = 0.5 * np.sqrt(det)
    # Barycentric gradients D = [[-1,-1],[1,0],[0,1]] against the cell metric.
    inv11 = g22 / det
    inv12 = -g12 / det
    inv22 = g11 / det
    d = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    local = np.empty((len(cells), 3, 3))
    for i in range(3):
        for j in range(3):
            local[:, i, j] = (d[i, 0] * inv11 * d[j, 0]
                              + d[i, 0] * inv12 * d[j, 1]
                              + d[i, 1] * inv12 * d[j, 0]
                              + d[i, 1] * inv22 * d[j, 1]) * area
    return area, local


_MASS_SEG = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
_MASS_TRI = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _accumulate(cells, local, size):
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    mat = scipy.sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size))
    return mat.tocsr()


def _cell_weight(mesh, exponent):
    """exp(exponent * u) with u averaged over each cell's vertices."""
    return np.exp(exponent * np.mean(mesh.u[mesh.cells], axis=1))


def _stiffness(mesh, exponent):
    """P1 stiffness matrix weighted by V^exponent, and the cell measures."""
    w = _cell_weight(mesh, exponent)
    if mesh.cell_dim == 1:
        measure = cell_measures(mesh)
        if np.min(measure) <= 1e-14:
            raise DegenerateCell("segment with vanishing length")
        k_local = np.array([[1.0, -1.0], [-1.0, 1.0]])
        local = (w / measure)[:, None, None] * k_local[None, :, :]
    elif mesh.cell_dim == 2:
        measure, local = _triangle_gradients(mesh.vertices, mesh.cells)
        local *= w[:, None, None]
    else:
        raise MeshNotTwoDim(f"unsupported cell dimension {mesh.cell_dim}")
    return _accumulate(mesh.cells, local, len(mesh.vertices)), measure


def assemble(mesh, params):
    """Weighted stiffness/mass pair for the hypersurface eigenproblem."""
    stiff_exp = params.energy_exponent(mesh.cell_dim)
    a, measure = _stiffness(mesh, stiff_exp)
    w_mass = _cell_weight(mesh, stiff_exp + params.alpha - params.beta)
    local_mass = _MASS_SEG if mesh.cell_dim == 1 else _MASS_TRI
    local_b = (w_mass * measure)[:, None, None] * local_mass[None, :, :]
    b = _accumulate(mesh.cells, local_b, len(mesh.vertices))
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
    a = _stiffness(mesh, params.energy_exponent(2))[0]
    interior = np.delete(np.arange(len(mesh.vertices)), boundary)
    aii = a[interior][:, interior]
    phi = np.zeros(len(mesh.vertices))
    phi[boundary] = psi
    if len(interior):
        phi[interior] = _pcg(aii, -a[interior][:, boundary] @ psi,
                             _multigrid(mesh, aii, interior))
    return phi, a


def _boundary_lengths(mesh):
    """Length of each boundary edge, from loop vertex i to vertex i + 1."""
    verts = mesh.vertices[np.asarray(mesh.boundary_loop)]
    return np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)


def recover_normal_flux(mesh, a, phi):
    """Variationally consistent V^w phi_nu at boundary vertices.

    The stiffness residual (A phi) restricted to boundary rows represents
    chi -> int_bnd V^w phi_nu chi; dividing by the boundary lumped mass
    (with the same weight folded in) recovers nodal phi_nu values times
    the stiffness weight.
    """
    loop = np.asarray(mesh.boundary_loop)
    residual = np.asarray(a @ phi)[loop]
    lengths = _boundary_lengths(mesh)
    return residual / (0.5 * lengths + 0.5 * np.roll(lengths, 1))


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

    loop = np.asarray(mesh.boundary_loop)
    u_b = mesh.u[loop]
    tau = params.tau(2)

    flux_w = recover_normal_flux(mesh, a, phi)          # V^{2a+2b} phi_nu
    phi_nu = flux_w * np.exp(-params.energy_exponent(2) * u_b)
    h = np.exp(params.beta * u_b) * phi_nu              # V^beta phi_nu
    psi = np.asarray(boundary_values, dtype=float)

    lengths = _boundary_lengths(mesh)
    # P1 gradients along the boundary polyline; weights at edge midpoints.
    dpsi = (np.roll(psi, -1) - psi) / lengths
    dh = (np.roll(h, -1) - h) / lengths
    u_mid = 0.5 * (u_b + np.roll(u_b, -1))
    w_edge = np.exp((tau + params.beta - 2.0 * params.alpha) * u_mid)
    t_pairing = float(np.sum(w_edge * dpsi * dh * lengths))

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
