"""Discrete weighted Laplacian eigenproblems on closed hypersurfaces.

The induced weighted Laplacian on an m-dimensional hypersurface reads

    Lap^D_S psi = V^{beta-alpha} (Lap_S psi + (m alpha + 2 beta)
                                   g(grad_S u, grad_S psi)).

Multiplying the eigenvalue equation by V^{alpha-beta} w chi with
w = V^{m alpha + 2 beta} and integrating by parts gives the symmetric
weak form

    int_S w g(grad psi, grad chi) = lambda int_S w V^{alpha-beta} psi chi,

which is what :func:`assemble` discretizes with piecewise-linear elements
and cell-averaged weights.  A Fourier collocation discretization of the
raw (non-symmetric) operator on circles provides an independent oracle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .curvature import curvature_bound_scan
from .errors import (DegenerateCell, MeshNotTwoDim, NonpositiveK,
                     NotDMinimal, SingularSystem, SolverNoConvergence)
from .meshes import cell_measures
from .operators import d_minimal_residual

DENSE_CUTOFF = 2000


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
    stiff_exp = mesh.cell_dim * params.alpha + 2.0 * params.beta
    a, measure = _stiffness(mesh, stiff_exp)
    w_mass = _cell_weight(mesh, stiff_exp + params.alpha - params.beta)
    local_mass = _MASS_SEG if mesh.cell_dim == 1 else _MASS_TRI
    local_b = (w_mass * measure)[:, None, None] * local_mass[None, :, :]
    b = _accumulate(mesh.cells, local_b, len(mesh.vertices))
    return SpectralProblem(stiffness=a, mass=b, mesh=mesh)


def eigenvalues(prob, count=6, method="auto"):
    """Smallest ``count`` eigenvalues of the generalized pair (A, B)."""
    a, b = prob.stiffness, prob.mass
    n = prob.size
    if method == "dense" or (method == "auto" and n < DENSE_CUTOFF):
        vals = scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True,
                                 subset_by_index=(0, min(count, n) - 1))
        return np.asarray(vals)
    sigma = -0.1 * (a.diagonal().sum() / b.diagonal().sum())
    # Fixed start vector keeps the Lanczos iteration fully deterministic.
    v0 = 1.5 + np.sin(np.arange(n, dtype=float))
    try:
        vals = scipy.sparse.linalg.eigsh(a, k=count, M=b, sigma=sigma,
                                         which="LM", return_eigenvectors=False,
                                         maxiter=2000, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as err:
        raise SolverNoConvergence("shift-invert Lanczos did not converge",
                                  residual=getattr(err, "eigenvalues", None)) from err
    return np.sort(vals)


def smallest_nonzero_eigenvalue(prob, method="auto"):
    """First nonzero eigenvalue; the constant mode is deflated by sorting."""
    vals = eigenvalues(prob, count=min(6, prob.size), method=method)
    scale = max(abs(vals[-1]), 1.0)
    if abs(vals[0]) > 1e-6 * scale:
        raise SolverNoConvergence(
            f"constant kernel mode missing: smallest eigenvalue {vals[0]}")
    return float(vals[1])


# ---------------------------------------------------------------------------
# Independent oracle: Fourier collocation of the non-symmetric operator on
# a circle.  Exponentially accurate for smooth weights, so FEM eigenvalues
# can be validated against it directly.


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


# ---------------------------------------------------------------------------
# Harmonic extension on 2-dimensional regions and the bound's proof-chain
# inequality.


def harmonic_extension_2d(mesh, params, boundary_values):
    """Solve the weighted-harmonic Dirichlet problem on a triangle mesh.

    The interior equation Lap^D phi = 0 on a 2-dimensional region is the
    divergence form div(V^{2 alpha + 2 beta} grad phi) = 0; Dirichlet data
    is imposed exactly on ``mesh.boundary_loop``.
    """
    if mesh.cell_dim != 2:
        raise MeshNotTwoDim("harmonic extension needs a triangle mesh")
    if mesh.boundary_loop is None:
        raise MeshNotTwoDim("mesh has no boundary loop")
    n_ambient = 2
    a = _stiffness(mesh, n_ambient * params.alpha + 2.0 * params.beta)[0]
    size = len(mesh.vertices)
    boundary = np.asarray(mesh.boundary_loop)
    interior = np.setdiff1d(np.arange(size), boundary)
    phi = np.zeros(size)
    phi[boundary] = boundary_values
    rhs = -a[interior][:, boundary] @ phi[boundary]
    a_ii = a[interior][:, interior].tocsc()
    try:
        solve = scipy.sparse.linalg.factorized(a_ii)
    except RuntimeError as err:
        raise SingularSystem(str(err)) from err
    phi[interior] = solve(rhs)
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
    lumped = np.zeros(len(loop))
    lumped += 0.5 * lengths
    lumped += 0.5 * np.roll(lengths, 1)
    return residual / lumped


def proof_chain_inequality(mesh, params, boundary_values, k_constant):
    """Evaluate the intermediate inequality of the eigenvalue bound's proof.

    Returns the quantity Q = K * E - 2 T, where E is the weighted Dirichlet
    energy of the harmonic extension and T the tangential pairing of the
    boundary data with the weighted normal flux; the second-fundamental
    boundary term vanishes on the geodesic boundaries used here.  The
    inequality asserts Q <= 0; ``positive_scale`` normalizes the tolerance.
    """
    phi, a = harmonic_extension_2d(mesh, params, boundary_values)
    energy = float(phi @ (a @ phi))

    loop = np.asarray(mesh.boundary_loop)
    u_b = mesh.u[loop]
    n_ambient = 2
    tau = params.tau(n_ambient)

    flux_w = recover_normal_flux(mesh, a, phi)          # V^{2a+2b} phi_nu
    phi_nu = flux_w * np.exp(-(2 * params.alpha + 2 * params.beta) * u_b)
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
            "positive_scale": positive_scale, "phi": phi}


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


def choi_wang_certificate(man, params, hypersurface, mesh, scan_count=100):
    """Certify lambda_1 >= K/2 on a D-minimal hypersurface scenario.

    ``mesh`` must discretize ``hypersurface`` with vertex weights already
    sampled from the ambient weight.
    """
    dmin = d_minimal_residual(hypersurface, params)
    if dmin > 1e-8:
        raise NotDMinimal(f"max |H^D| = {dmin} exceeds 1e-08")
    report = curvature_bound_scan(man, params, scan_count)
    if report.k_best <= 0.0:
        raise NonpositiveK(f"scan found K = {report.k_best}")
    prob = assemble(mesh, params)
    lam1 = smallest_nonzero_eigenvalue(prob)
    tol = 1e-3 * report.k_best
    margin = lam1 - report.k_best / 2.0
    return Certificate(k_best=report.k_best, lambda1=lam1, margin=margin,
                       tolerance=tol, passed=margin >= -tol,
                       d_minimal_residual=dmin)
