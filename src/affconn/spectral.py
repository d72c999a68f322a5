"""Discrete weighted Laplacian eigenproblems on closed hypersurfaces.

The induced weighted Laplacian on an m-dimensional hypersurface reads

    Lap^D_S psi = V^{beta-alpha} (Lap_S psi + (m alpha + 2 beta)
                                   g(grad_S u, grad_S psi)).

Multiplying the eigenvalue equation by V^{alpha-beta} w chi with
w = V^{m alpha + 2 beta} and integrating by parts gives the symmetric
weak form

    int_S w g(grad psi, grad chi) = lambda int_S w V^{alpha-beta} psi chi,

which is what :func:`assemble` discretizes with piecewise-linear elements
and cell-averaged weights.  :func:`eigenvalues` solves it by multigrid
LOBPCG at every mesh size, and the Dirichlet problems are solved by
multigrid PCG: nothing here densifies or factors a sparse matrix or needs
scipy.linalg.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .algebra import det, inv
from .errors import (DegenerateCell, GeometryError, MeshNotTwoDim,
                     SingularSystem, SolverNoConvergence)
from .meshes import SurfaceMesh

# Read by no engine code, only by perfbench's path tag (ROADMAP item 14).
DENSE_CUTOFF = 0
PCG_RTOL, PCG_MAX_ITER = 1e-13, 100
LOBPCG_RTOL, LOBPCG_MAX_ITER = 1e-7, 100


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
    D = [-1 ... -1; I] the barycentric gradients.  Column q of the
    stiffness is local entry (i, j) = np.triu_indices(k + 1)[q] of every
    cell.  It sums in place, in row order of (a, b), only the terms with
    D_ia D_jb = +-1, each exact (a skipped one is +-0), which keeps the
    triangle entries bit for bit those of the written-out closed form.
    """
    v, cells = mesh.vertices, mesh.cells
    k = cells.shape[1] - 1
    edges = [v[cells[:, a + 1]] - v[cells[:, 0]] for a in range(k)]
    gram = [[None] * k for _ in edges]  # symmetric: g_ba is g_ab
    for a, b in itertools.combinations_with_replacement(range(k), 2):
        gram[a][b] = gram[b][a] = np.einsum("ij,ij->i", edges[a], edges[b])
    del edges
    det_g = det(gram)
    if not np.min(det_g) > 0:  # a non-finite vertex fails this too
        raise DegenerateCell(f"{k}-cell with vanishing or non-finite measure")
    measure = np.sqrt(det_g) / math.factorial(k)
    g_inv = inv(gram)
    del gram, det_g
    d = [[-1.0] * k] + np.eye(k).tolist()
    pairs = [(a, b) for a in range(k) for b in range(k)]
    upper = np.triu_indices(k + 1)
    local = np.zeros((len(upper[0]), len(cells)))
    for col, i, j in zip(local, *upper):
        for a, b in pairs:
            if d[i][a] * d[j][b]:
                col += d[i][a] * d[j][b] * g_inv[a][b]
        col *= measure
    return measure, local.T


def _mass(mesh, measure, exponent):
    """P1 mass weighted by V^exponent: measure * (1 + I)/((k+1)(k+2))."""
    k = mesh.cell_dim
    table = (1.0 + np.eye(k + 1)) / ((k + 1) * (k + 2))
    return _scatter(mesh, measure[:, None] * table[np.triu_indices(k + 1)],
                    exponent)


def _scatter(mesh, local, exponent):
    """Global matrix U + U^T + diag of local entries ordered as in
    _p1_kernel, each scaled in place by V^exponent with u averaged over its
    cell's vertices.  The diagonal sums its cells in cell order; U sums each
    pair i < j at (min, max) of its corners, where an edge of a manifold
    mesh has at most two, so their order cannot matter."""
    w = np.exp(exponent * np.mean(mesh.u[mesh.cells], axis=1))
    if not np.all(np.isfinite(w)):
        raise GeometryError(f"non-finite weight V^{exponent} on "
                            f"{np.sum(~np.isfinite(w))} cells")
    i, j = np.triu_indices(mesh.cell_dim + 1)
    local *= w[:, None]
    size, off = len(mesh.vertices), i < j
    diag = np.bincount(mesh.cells.ravel(), local[:, ~off].ravel(), size)
    # The pairs alone; the caller's array goes too if it keeps no reference.
    local = local.T[off].ravel()
    ends = mesh.cells.T.astype(np.int32)[[i[off], j[off]]]
    ends = np.minimum(*ends).ravel(), np.maximum(*ends).ravel()  # U's row, col
    upper = scipy.sparse.coo_matrix((local, ends), shape=(size, size)).tocsr()
    del local, ends
    upper = upper + upper.T
    return upper + scipy.sparse.diags(diag, format="csr")


def assemble(mesh, params):
    """Weighted stiffness/mass pair for the hypersurface eigenproblem."""
    stiff_exp = params.energy_exponent(mesh.cell_dim)
    measure, local = _p1_kernel(mesh)
    a = _scatter(mesh, local, stiff_exp)
    b = _mass(mesh, measure, stiff_exp + params.alpha - params.beta)
    return SpectralProblem(stiffness=a, mass=b, mesh=mesh)


def eigenvalues(prob):
    """lambda_0 and lambda_1, the two smallest eigenvalues of (A, B).

    Block LOBPCG on four columns at every mesh size, preconditioned with
    a multigrid V-cycle of A + sigma B (:func:`_lobpcg`); it returns the
    Rayleigh quotients of the two lowest eigenvectors.
    """
    a, b = prob.stiffness, prob.mass
    n = prob.size
    # tr A / tr B grows like n^(2/d); dividing that out puts sigma at the
    # scale of the lowest eigenvalues, and A + sigma B is SPD.
    sigma = (a.diagonal().sum() / b.diagonal().sum()) / n ** (
        2.0 / prob.mesh.cell_dim)
    precond = _multigrid(prob.mesh, (a + sigma * b).tocsr())
    # The constants, the smooth coordinate functions, then fixed
    # oscillating columns: a deterministic start block.
    coords = [c for c in prob.mesh.vertices.T if np.ptp(c) > 0]
    fill = np.sin(np.outer(np.arange(1.0, n + 1), np.arange(1.0, 5.0)))
    start = np.column_stack([np.ones(n), *coords, fill])[:, :4]
    return _lobpcg(a, b, start, precond)


def _gram(u, v):
    """u^T v by einsum, as every block product here: a BLAS product would
    make the bits depend on the BLAS thread count."""
    return np.einsum("ik,il->kl", u, v)


def _b_orthonormal(v, b, x=None, bx=None):
    """B-orthonormal basis of span(v) with the B-orthonormal x projected
    out twice, by SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23, 2002):
    it drops directions below 1e-13 of the largest instead of failing."""
    for _ in range(0 if x is None else 2):
        v = v - np.einsum("ik,kl->il", x, _gram(bx, v))
    g = _gram(v, b @ v)
    scale = np.diag(g)
    if not np.all(scale > 0):
        raise SingularSystem("mass matrix is not positive definite")
    scale = 1.0 / np.sqrt(scale)
    theta, q = np.linalg.eigh(g * scale[:, None] * scale)
    keep = theta > 1e-13 * theta[-1]
    return np.einsum("ik,kl->il", v, scale[:, None] * q[:, keep]
                     / np.sqrt(theta[keep]))


def _lobpcg(a, b, x, precond):
    """The two smallest eigenvalues of (A, B) by block LOBPCG
    (Knyazev, SIAM J. Sci. Comput. 23, 2001) from the start block ``x``.

    Each step is a Rayleigh-Ritz on X and, B-orthonormal to it, the
    preconditioned residuals W and last updates P of the columns not yet
    converged.  A column converges at a residual, in the lumped mass's
    B^-1 norm, of LOBPCG_RTOL times its Ritz value (lambda_1's for the
    constant mode).  The result is the converged vectors' Rayleigh
    quotients, not the Ritz values, whose error is eps times the largest.
    """
    lumped = b @ np.ones(len(x))
    s = _b_orthonormal(x, b)
    m = s.shape[1]
    for step in range(LOBPCG_MAX_ITER + 1):
        ritz = _gram(s, a @ s)
        if not np.all(np.isfinite(ritz)):
            raise SolverNoConvergence(f"LOBPCG Ritz matrix not finite at "
                                      f"step {step}")
        theta, c = np.linalg.eigh(ritz)
        theta, x = theta[:m], np.einsum("ik,kl->il", s, c[:, :m])
        ax, bx = a @ x, b @ x
        r = ax - bx * theta
        res = np.sqrt(np.einsum("ik,ik,i->k", r, r, 1.0 / lumped))
        active = res > LOBPCG_RTOL * np.maximum(abs(theta), abs(theta[1]))
        if not active[:2].any():
            return np.sort(np.einsum("ik,ik->k", x, ax)[:2]
                           / np.einsum("ik,ik->k", x, bx)[:2])
        if step == LOBPCG_MAX_ITER or not np.all(np.isfinite(res)):
            raise SolverNoConvergence(
                f"LOBPCG residual {np.max(res)} at step {step}")
        w = precond(r[:, active])
        if s.shape[1] > m:
            p = np.einsum("ik,kl->il", s[:, m:], c[m:, :m])
            w = np.hstack([w, p[:, active]])
        s = np.hstack([x, _b_orthonormal(w, b, x, bx)])


def smallest_nonzero_eigenvalue(prob):
    """First nonzero eigenvalue, lambda_1 of :func:`eigenvalues`.

    lambda_0 is the constant mode; it must vanish against
    max(|lambda_1|, 1), or the solve is refused.
    """
    lam0, lam1 = eigenvalues(prob)
    if abs(lam0) > 1e-6 * max(abs(lam1), 1.0):
        raise SolverNoConvergence(
            f"constant kernel mode missing: smallest eigenvalue {lam0}")
    return float(lam1)


# ---------------------------------------------------------------------------
# Harmonic extension on 2-dimensional regions and the bound's proof-chain
# inequality.


def _head(m, n):
    """The first ``n`` rows of the CSR matrix ``m``, sharing its arrays."""
    return scipy.sparse.csr_matrix((m.data, m.indices, m.indptr[:n + 1]),
                                   shape=(n, m.shape[1]))


class _Interior:
    """A_II, never copied: A's interior rows (a view when the interior
    comes first) times a length-N buffer that is zero off the interior.  A
    product with a zero adds +-0, so each row sum keeps its bits."""

    def __init__(self, a, interior):
        first = interior[-1] < len(interior)  # sorted: 0 .. n - 1
        self.rows = _head(a, len(interior)) if first else a[interior]
        self.at = slice(len(interior)) if first else interior
        self.buffer, self.diag = np.zeros(a.shape[1]), a.diagonal()[interior]

    def diagonal(self):
        return self.diag

    def __matmul__(self, x):
        self.buffer[self.at] = x
        return self.rows @ self.buffer


def _bisection(mesh, n):
    """Each level's interpolation from the one below, finest first, on
    the columns of the coarse vertices among the first ``n`` of ``mesh``.

    Every level bisects each edge of the one below, so a nested vertex
    takes its coarse vertex, and a new one half of each of its two nested
    neighbours: the ends of its parent edge, a cell of the level below."""
    name, size, nested_ids = mesh.generator
    cells = mesh.cells
    for level in range(mesh.level or 0, 0, -1):
        nested = nested_ids(level)
        coarse = np.full(size(level), -1, np.int32)  # id a level below
        coarse[nested] = np.arange(len(nested))
        fresh, edges = coarse[cells] < 0, []
        for i, j in itertools.permutations(range(cells.shape[1]), 2):
            at = np.flatnonzero(fresh[:, i] & ~fresh[:, j])
            edges.append((cells[at, i], coarse[cells[at, j]]))
        new, end = map(np.concatenate, zip(*edges))  # per cell edge
        del fresh, edges
        # A new vertex's least and greatest nested neighbour, its only ones
        ends = np.c_[coarse, coarse]
        ends[coarse < 0] = len(coarse), -1
        np.minimum.at(ends[:, 0], new, end)
        np.maximum.at(ends[:, 1], new, end)
        cells = ends[coarse < 0]
        if not (np.all(cells[:, 0] < cells[:, 1]) and np.all(
                (ends[new, 0] == end) | (ends[new, 1] == end))):
            raise ValueError(f"{name}({level}): a new vertex without two "
                             f"nested neighbours, the ends of its edge")
        del coarse, new, end  # before the CSR: a lower RSS peak
        n, single = np.searchsorted(nested, n), ends[:, 0] == ends[:, 1]
        keep = ends < n
        keep[single, 1] = False
        yield scipy.sparse.csr_matrix((
            np.where(single, 1.0, 0.5)[:, None].repeat(2, axis=1)[keep],
            ends[keep], np.r_[0, np.cumsum(keep.sum(axis=1))]),
            shape=(len(ends), n))


def _jacobi(a):
    """Damped Jacobi weights 4 / (3 rho) D^-1, rho(D^-1 A) by power steps."""
    diag = a.diagonal()
    if not np.all(diag > 0):  # as an SPD block's must be
        raise SingularSystem("interior block has a nonpositive diagonal")
    inv_diag = 1.0 / diag
    x = y = 1.5 + np.sin(np.arange(len(diag), dtype=float))
    for _ in range(10):
        x, y = inv_diag * (a @ x), x
    return 4.0 / (3.0 * np.sqrt(np.sum(x * x) / np.sum(y * y))) * inv_diag


def _multigrid(mesh, a):
    """V-cycle for the block ``a`` (a matrix or an :class:`_Interior`) of
    ``mesh``'s first vertices, the interior or all of a closed mesh: levels
    P^T A P with :func:`_bisection`'s P; two damped Jacobi sweeps before
    and after each correction; the coarsest level, the only one of a mesh
    without a level, is only smoothed.  It takes a vector or a block."""
    levels, w = [], _jacobi(a)
    for p in [*_bisection(mesh, len(w))]:  # all first: a lower RSS peak
        p_i, rows = _head(p, len(w)), getattr(a, "rows", a)
        levels.append((a, p_i, p_i.T, w))
        a = p_i.T.tocsr() @ rows @ _head(p, rows.shape[1])
        w = _jacobi(a)
    levels.append((a, None, None, w))
    return lambda r: _vcycle(levels, r)


def _vcycle(levels, r, depth=0):
    """One V-cycle of :func:`_multigrid`'s ``levels`` applied to ``r``."""
    a, p, pt, w = levels[depth]
    if r.ndim == 2:
        w = w[:, None]
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
    phi = np.zeros(len(mesh.vertices))
    phi[boundary] = psi
    if len(interior):
        a_ii = _Interior(a, interior)
        # A phi, with phi zero inside, is A[interior, boundary] psi there.
        try:
            phi[interior] = _pcg(a_ii, -(a_ii.rows @ phi),
                                 _multigrid(mesh, a_ii))
        except SolverNoConvergence as err:
            if mesh.level is not None:
                raise
            raise SolverNoConvergence(
                f"{err}: the mesh has no generator level, so its multigrid "
                f"is a single damped-Jacobi level") from err
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
    return a[mesh.boundary_loop] @ phi / lumped


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
