"""Reference oracles and fixtures that only the tests use.

Each one cross-checks the engine by an independent route (a spectral
collocation, an orthonormal-frame contraction, a facet count, the general
cofactor loop), or builds an input that no built-in scenario needs.
"""

import math
import tracemalloc

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from affconn import spectral
from affconn.algebra import det, dot, inv
from affconn.curvature import _riemann_entries
from affconn.errors import DegenerateCell
from affconn.meshes import icosphere
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
    ``step``, the independent cross-check of nested ``dual.partial``
    lifts."""
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


def metric_at(man, x):
    """The metric matrix at an admissible point, as a float64 array."""
    return np.array(man.metric(man.point(x)), dtype=float)


def orthonormal_frame(man, x):
    """Gram-Schmidt of the coordinate basis in axis order, frame as columns."""
    g = metric_at(man, x)
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


def riemann_generic(man, params, x):
    """R[l][k][i][j] coefficients of R(e_i, e_j) e_k = R^l_{kij} e_l, every
    entry of the engine's ``curvature._riemann_entries``."""
    entry, n = _riemann_entries(man, params, x), man.dim
    return [[[[entry(l, k, i, j) for j in range(n)] for i in range(n)]
             for k in range(n)] for l in range(n)]


def riemann_at(man, x, params):
    """The Riemann tensor R[l, k, i, j] at an admissible point, as float64."""
    return np.array(riemann_generic(man, params, man.point(x)), dtype=float)


def ricci_frame_sum(man, x, params):
    """Ricci via the orthonormal-frame sum; cross-checks the trace form."""
    riem = riemann_at(man, x, params)
    frame = orthonormal_frame(man, x)
    g = metric_at(man, x)
    return np.einsum("ai,bi,lb,lqap->pq", frame, frame, g, riem)


def traced_ricci(man, params, x):
    """Ric[p][q] = sum_a R^a_{qap} read off the full :func:`riemann_generic`
    tensor, the reference for ``ricci_generic``'s trace entries."""
    n = man.dim
    riem = riemann_generic(man, params, x)
    ric = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            acc = 0.0
            for a in range(n):
                acc = acc + riem[a][q][a][p]
            ric[p][q] = acc
    return ric


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


def cell_measures(mesh):
    """Lengths (segments) or areas (triangles) of all cells, by the cross
    product; the reference for the Gram measures of ``spectral._p1_kernel``."""
    v = mesh.vertices
    c = mesh.cells
    if mesh.cell_dim == 1:
        return np.linalg.norm(v[c[:, 1]] - v[c[:, 0]], axis=1)
    e1 = v[c[:, 1]] - v[c[:, 0]]
    e2 = v[c[:, 2]] - v[c[:, 0]]
    if v.shape[1] == 2:
        return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


def vectorized_disk_mesh(level):
    """Vertices and cells of ``disk_mesh(level)`` with every ring's zigzag
    built at once, from per-triangle ring, sector and slot arrays; the
    reference for its ring-by-ring loop."""
    rings = 2 ** level * 4
    ring_start = np.concatenate([[0], 1 + 3 * np.arange(1, rings + 1)
                                 * np.arange(rings)])
    ring = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    k = np.arange(1, len(ring) + 1) - ring_start[ring]
    r = ring / rings
    a = 2.0 * np.pi * k / (6 * ring)
    vertices = np.concatenate([[[0.0, 0.0]],
                               np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)])
    fan = np.stack([np.zeros(6, dtype=int), 1 + np.arange(6),
                    1 + (np.arange(6) + 1) % 6], axis=-1)
    per_ring = 6 * (2 * np.arange(1, rings) + 1)
    j = np.repeat(np.arange(1, rings), per_ring)
    slot = np.arange(len(j)) - np.repeat(np.cumsum(per_ring) - per_ring, per_ring)
    sector, q = np.divmod(slot, 2 * j + 1)
    step, odd = np.divmod(q, 2)
    inner0, outer0 = ring_start[j], ring_start[j + 1]
    ni, no = 6 * j, 6 * (j + 1)
    ii = sector * j + step
    oo = sector * (j + 1) + step
    zigzag = np.stack([inner0 + ii % ni,
                       outer0 + (oo + odd) % no,
                       np.where(odd == 1, inner0 + (ii + 1) % ni,
                                outer0 + (oo + 1) % no)], axis=-1)
    return vertices, np.concatenate([fan, zigzag])


def check_nondegenerate(mesh, tol=1e-14):
    measures = cell_measures(mesh)
    if np.min(measures) <= tol:
        raise DegenerateCell(f"smallest cell measure {np.min(measures)}")
    return True


# --- spectrum --------------------------------------------------------------


def peak_bytes(call, *args):
    """tracemalloc's peak during ``call(*args)``."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def force_path(monkeypatch, method):
    """Send every eigensolve down one path, ``"dense"`` or ``"iterative"``
    (multigrid LOBPCG), by moving ``spectral.DENSE_CUTOFF``."""
    monkeypatch.setattr(spectral, "DENSE_CUTOFF",
                        np.inf if method == "dense" else 0)


# P1 assembly by the closed forms of each cell kind: the triangle Gram
# inverse written out, w / L [[1, -1], [-1, 1]] for a segment, the two mass
# tables, and the boundary polyline's lengths; the reference for
# ``spectral._p1_kernel`` and its callers.

MASS_SEG = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
MASS_TRI = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def triangle_gradients(verts, cells):
    """Per-cell area and local stiffness for P1 elements on triangles."""
    e1 = verts[cells[:, 1]] - verts[cells[:, 0]]
    e2 = verts[cells[:, 2]] - verts[cells[:, 0]]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    det = g11 * g22 - g12 * g12
    area = 0.5 * np.sqrt(det)
    inv11, inv12, inv22 = g22 / det, -g12 / det, g11 / det
    d = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    local = np.empty((len(cells), 3, 3))
    for i in range(3):
        for j in range(3):
            local[:, i, j] = (d[i, 0] * inv11 * d[j, 0]
                              + d[i, 0] * inv12 * d[j, 1]
                              + d[i, 1] * inv12 * d[j, 0]
                              + d[i, 1] * inv22 * d[j, 1]) * area
    return area, local


def coo_sum(cells, local, size):
    """The (k+1)^2 local entries of every cell summed by one COO matrix, the
    plain reference for the pair order of :func:`_coo`."""
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    return scipy.sparse.coo_matrix((local.ravel(), (rows, cols)),
                                   shape=(size, size)).tocsr()


def _coo(cells, local, size):
    """The local matrices summed in the order of ``spectral._scatter``: U
    holds entry (i, j), i < j, at (min, max) of its corners, the diagonal
    sums its cells in cell order, and the sum is U + U^T + diag."""
    i, j = np.triu_indices(cells.shape[1], 1)
    lo = np.minimum(cells[:, i], cells[:, j])
    hi = np.maximum(cells[:, i], cells[:, j])
    u = scipy.sparse.coo_matrix((local[:, i, j].ravel(), (lo.ravel(), hi.ravel())),
                                shape=(size, size)).tocsr()
    corner = np.arange(cells.shape[1])
    diag = np.bincount(cells.ravel(), local[:, corner, corner].ravel(), size)
    return u + u.T + scipy.sparse.diags(diag)


def _cell_weight(mesh, exponent):
    return np.exp(exponent * np.mean(mesh.u[mesh.cells], axis=1))


def closed_form_stiffness(mesh, exponent):
    """P1 stiffness weighted by V^exponent, and the cell measures."""
    w = _cell_weight(mesh, exponent)
    if mesh.cell_dim == 1:
        measure = cell_measures(mesh)
        k_local = np.array([[1.0, -1.0], [-1.0, 1.0]])
        local = (w / measure)[:, None, None] * k_local[None, :, :]
    else:
        measure, local = triangle_gradients(mesh.vertices, mesh.cells)
        local *= w[:, None, None]
    return _coo(mesh.cells, local, len(mesh.vertices)), measure


def closed_form_assemble(mesh, params):
    """Weighted stiffness and mass of ``spectral.assemble``."""
    stiff_exp = params.energy_exponent(mesh.cell_dim)
    a, measure = closed_form_stiffness(mesh, stiff_exp)
    w_mass = _cell_weight(mesh, stiff_exp + params.alpha - params.beta)
    table = MASS_SEG if mesh.cell_dim == 1 else MASS_TRI
    local = (w_mass * measure)[:, None, None] * table[None, :, :]
    return a, _coo(mesh.cells, local, len(mesh.vertices))


def plain_assemble(mesh, params):
    """Stiffness and mass of ``spectral.assemble``'s own local entries,
    mirrored below the diagonal, weighted and summed by :func:`coo_sum`."""
    measure, upper = spectral._p1_kernel(mesh)
    k = mesh.cell_dim
    i, j = np.triu_indices(k + 1)
    stiffness = np.empty((len(measure), k + 1, k + 1))
    stiffness[:, i, j] = stiffness[:, j, i] = upper
    mass = measure[:, None, None] * (MASS_SEG if k == 1 else MASS_TRI)
    stiff_exp = params.energy_exponent(k)
    mass_exp = stiff_exp + params.alpha - params.beta
    return tuple(
        coo_sum(mesh.cells, local * _cell_weight(mesh, exp)[:, None, None],
                len(mesh.vertices))
        for local, exp in ((stiffness, stiff_exp), (mass, mass_exp)))


def boundary_lengths(mesh):
    """Length of each boundary edge, from loop vertex i to vertex i + 1."""
    verts = mesh.vertices[np.asarray(mesh.boundary_loop)]
    return np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)


def polyline_flux(mesh, a, phi):
    """Boundary rows of A phi over the polyline's lumped mass (half the
    lengths of the two edges at each vertex)."""
    residual = np.asarray(a @ phi)[np.asarray(mesh.boundary_loop)]
    lengths = boundary_lengths(mesh)
    return residual / (0.5 * lengths + 0.5 * np.roll(lengths, 1))


def polyline_pairing(mesh, params, psi, h):
    """T = sum over boundary edges of V^{tau + beta - 2 alpha} at the edge
    midpoint times psi' h' L, with P1 gradients along the polyline."""
    u_b = mesh.u[np.asarray(mesh.boundary_loop)]
    lengths = boundary_lengths(mesh)
    dpsi = (np.roll(psi, -1) - psi) / lengths
    dh = (np.roll(h, -1) - h) / lengths
    u_mid = 0.5 * (u_b + np.roll(u_b, -1))
    tau = params.tau(2)
    w_edge = np.exp((tau + params.beta - 2.0 * params.alpha) * u_mid)
    return float(np.sum(w_edge * dpsi * dh * lengths))


def dirichlet_lu(mesh, params, boundary_values):
    """Harmonic extension by one sparse LU of the interior block in scipy's
    default column order, the reference for the multigrid-preconditioned CG
    of ``harmonic_extension_2d``."""
    a = closed_form_stiffness(mesh, params.energy_exponent(2))[0]
    size = len(mesh.vertices)
    boundary = np.asarray(mesh.boundary_loop)
    interior = np.setdiff1d(np.arange(size), boundary)
    phi = np.zeros(size)
    phi[boundary] = boundary_values
    rhs = -a[interior][:, boundary] @ phi[boundary]
    phi[interior] = scipy.sparse.linalg.splu(
        a[interior][:, interior].tocsc()).solve(rhs)
    return phi


# The Dirichlet path as it was before it read the interior rows through a
# view: the dot-product cell kernel, the scatter that halves the diagonal
# into U, and the solve on a sliced copy of A_II; the bit references of
# their replacements.  The solve takes the engine's own A, so it checks the
# solve alone.


def dot_kernel(mesh):
    """``spectral._p1_kernel`` by ``dot`` over all (a, b) pairs, zero
    terms included: measure * D G^-1 D^T, one column per i <= j."""
    v, cells = mesh.vertices, mesh.cells
    k = cells.shape[1] - 1
    edges = [v[cells[:, a + 1]] - v[cells[:, 0]] for a in range(k)]
    gram = [[np.einsum("ij,ij->i", ea, eb) for eb in edges] for ea in edges]
    det_g = det(gram)
    if not np.min(det_g) > 0:
        raise DegenerateCell(f"{k}-cell with vanishing or non-finite measure")
    measure = np.sqrt(det_g) / math.factorial(k)
    g_inv = inv(gram)
    d = [[-1.0] * k] + np.eye(k).tolist()
    pairs = [(a, b) for a in range(k) for b in range(k)]
    upper = np.triu_indices(k + 1)
    local = np.empty((len(cells), len(upper[0])))
    for q, (i, j) in enumerate(zip(*upper)):
        local[:, q] = dot([d[i][a] * g_inv[a][b] for a, b in pairs],
                          [d[j][b] for a, b in pairs]) * measure
    return measure, local


def halved_scatter(mesh, local, exponent):
    """``spectral._scatter`` with the diagonal halved into U: one COO sum
    of every pair i <= j at (min, max) of its corners, then U + U^T."""
    w = np.exp(exponent * np.mean(mesh.u[mesh.cells], axis=1))
    i, j = np.triu_indices(mesh.cell_dim + 1)
    local = local * w[:, None]
    local[:, i == j] *= 0.5
    cells = mesh.cells.astype(np.int32)
    size = len(mesh.vertices)
    upper = scipy.sparse.coo_matrix(
        (local.ravel(), (np.minimum(cells[:, i], cells[:, j]).ravel(),
                         np.maximum(cells[:, i], cells[:, j]).ravel())),
        shape=(size, size)).tocsr()
    return upper + upper.T


def sorted_scatter(mesh, local, exponent):
    """``spectral._scatter`` with each pair's ends sorted in place along
    the pair axis: (2, pairs, cells) int32 ends, then row and column as
    the two sorted rows; the reference for its min/max ends."""
    w = np.exp(exponent * np.mean(mesh.u[mesh.cells], axis=1))
    i, j = np.triu_indices(mesh.cell_dim + 1)
    local = local * w[:, None]
    size, off = len(mesh.vertices), i < j
    diag = np.bincount(mesh.cells.ravel(), local[:, ~off].ravel(), size)
    ends = mesh.cells.T.astype(np.int32)[[i[off], j[off]]]
    ends.sort(axis=0)
    upper = scipy.sparse.coo_matrix((local.T[off].ravel(),
                                     tuple(ends.reshape(2, -1))),
                                    shape=(size, size)).tocsr()
    return upper + upper.T + scipy.sparse.diags(diag, format="csr")


def full_product_flux(mesh, a, phi):
    """``spectral.recover_normal_flux`` from all rows of A phi, of which
    the boundary rows are read."""
    ring = spectral._boundary_mesh(mesh)
    lumped = spectral._mass(ring, spectral._p1_kernel(ring)[0], 0.0) @ np.ones(
        len(ring.u))
    return np.asarray(a @ phi)[mesh.boundary_loop] / lumped


def _sliced_multigrid(mesh, a):
    """``spectral._multigrid`` on a sliced block: each level keeps the first
    rows P[:n] of its ``spectral._bisection`` P and a CSR copy of their
    transpose."""
    levels = []
    for p in [*spectral._bisection(mesh, a.shape[0]), None]:
        diag = a.diagonal()
        inv_diag = 1.0 / diag
        x = y = 1.5 + np.sin(np.arange(len(diag), dtype=float))
        for _ in range(10):
            x, y = inv_diag * (a @ x), x
        w = 4.0 / (3.0 * np.sqrt(np.sum(x * x) / np.sum(y * y))) * inv_diag
        if p is None:
            levels.append((a, None, None, w))
            break
        p = p[:len(diag)]
        levels.append((a, p, p.T.tocsr(), w))
        a = levels[-1][2] @ a @ p
    return lambda r: spectral._vcycle(levels, r)


def sliced_harmonic_extension(mesh, params, boundary_values):
    """``spectral.harmonic_extension_2d``'s phi from the copy
    A[interior][:, interior] of the engine's own stiffness."""
    a = spectral._scatter(mesh, spectral._p1_kernel(mesh)[1],
                          params.energy_exponent(2))
    boundary = np.asarray(mesh.boundary_loop)
    interior = np.delete(np.arange(len(mesh.vertices)), boundary)
    phi = np.zeros(len(mesh.vertices))
    phi[boundary] = boundary_values
    aii = a[interior][:, interior]
    phi[interior] = spectral._pcg(aii, -(a @ phi)[interior],
                                  _sliced_multigrid(mesh, aii))
    return phi


# The interpolations each mesh kind's hierarchy had before one walk over
# the cells built them all (``spectral._bisection``): the circle's and the
# icosphere's are its bit references, and the disk's, by position along the
# rings, agrees with its ½–½ rule on the even rings.


def _split_edges(nested, new, ends):
    """Prolongation in which fine vertex ``nested[k]`` takes coarse vertex
    k alone and fine vertex ``new[j]`` half of each coarse vertex in
    ``ends[j]``; and ``nested``."""
    rows = np.r_[nested, np.repeat(new, 2)]
    cols = np.r_[np.arange(len(nested)), ends.ravel()]
    weights = np.r_[np.ones(len(nested)), np.full(ends.size, 0.5)]
    return scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(
        len(nested) + len(new), len(nested))), nested


def circle_prolongation(level):
    """From circle_mesh(level - 1) to circle_mesh(level), and the fine ids
    of the coarse vertices: coarse vertex k is fine vertex 2k, and fine
    vertex 2k + 1 lies between coarse k and k + 1."""
    k = np.arange(2 ** (level + 3))
    return _split_edges(2 * k, 2 * k + 1,
                        np.stack([k, np.roll(k, -1)], axis=1))


def icosphere_prolongation(level):
    """From icosphere(level - 1) to icosphere(level), and the fine ids of
    the coarse vertices.  These are the first fine ones, and fine faces
    4f .. 4f + 3 split coarse face f = abc as (a, ab, ca), (b, bc, ab),
    (c, ca, bc), (ab, bc, ca); so each new vertex is read off with the
    ends of its parent edge."""
    faces = icosphere(level).cells.reshape(-1, 12)
    new, first = np.unique(faces[:, [1, 4, 2]], return_index=True)
    ends = faces[:, [0, 3, 3, 6, 6, 0]].reshape(-1, 2)[first]
    return _split_edges(np.arange(new[0]), new, ends)


def disk_prolongation(level):
    """From disk_mesh(level - 1) to disk_mesh(level), and the fine ids of
    the coarse vertices.  Fine ring 2j lies on coarse ring j and ring
    2j + 1 halfway between j and j + 1; on each such coarse ring c, fine
    vertex (J, K) sits at index K c / J, between two neighbours, which
    share it by distance.  So (2j, 2k) takes (j, k) alone."""
    rings = 2 ** level * 4
    ring = np.repeat(np.arange(rings + 1), [1, *(6 * np.arange(1, rings + 1))])
    k = np.arange(len(ring)) - (ring > 0) - 3 * ring * (ring - 1)
    fine, odd = np.maximum(ring, 1), ring % 2
    cols, weights = [], []
    for c, share in ((ring // 2, 2 - odd), ((ring + 1) // 2, odd)):
        pos, rem = np.divmod(k * c, fine)
        start, count = (c > 0) + 3 * c * (c - 1), np.maximum(6 * c, 1)
        for step, w in ((0, fine - rem), (1, rem)):
            cols.append(start + (pos + step) % count)
            weights.append(share * w / (2 * fine))
    p = scipy.sparse.csr_matrix(
        (np.stack(weights, axis=1).ravel(), np.stack(cols, axis=1).ravel(),
         np.arange(0, 4 * len(ring) + 1, 4)),
        shape=(len(ring), 1 + 3 * rings * (rings + 2) // 4))
    p.eliminate_zeros()
    return p, np.flatnonzero((odd == 0) & (k % 2 == 0))


def nested_dissection(mesh):
    """Nested-dissection order of the vertices (George, SIAM J. Numer. Anal.
    10, 1973), the fill-reducing order of :func:`shift_invert_eigenvalues`.

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


def shift_invert_eigenvalues(prob, count=6):
    """Smallest ``count`` eigenvalues of (A, B) by ARPACK's shift-invert
    Lanczos (``eigsh``) on one SuperLU factor of A - sigma B, the reference
    for the multigrid LOBPCG of ``spectral.eigenvalues``.

    sigma = -0.1 (tr A / tr B) / n^(2/d) sits at the scale of the lowest
    eigenvalues, below them; the factor is taken in the nested-dissection
    order with no pivoting, which an SPD matrix needs none of.
    """
    a, b, n = prob.stiffness, prob.mass, prob.size
    sigma = -0.1 * (a.diagonal().sum() / b.diagonal().sum()) / n ** (
        2.0 / prob.mesh.cell_dim)
    order = nested_dissection(prob.mesh)
    rank = np.argsort(order)
    lu = scipy.sparse.linalg.splu(
        (a - sigma * b)[order][:, order].tocsc(), permc_spec="NATURAL",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    opinv = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(x[order])[rank], dtype=float)
    v0 = 1.5 + np.sin(np.arange(n, dtype=float))
    return np.sort(scipy.sparse.linalg.eigsh(
        a, k=count, M=b, sigma=sigma, which="LM", return_eigenvectors=False,
        maxiter=2000, v0=v0, OPinv=opinv))


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
