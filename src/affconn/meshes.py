"""Simplicial meshes of closed curves, spheres, disks, and hemispheres.

Vertices live in Euclidean embedding space (R^2 or R^3); segment lengths
and triangle areas of the embedded simplices supply the induced metric to
the finite element assembly.  All generators are deterministic.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import UnsupportedKind

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    [-1.0, _PHI, 0.0], [1.0, _PHI, 0.0], [-1.0, -_PHI, 0.0], [1.0, -_PHI, 0.0],
    [0.0, -1.0, _PHI], [0.0, 1.0, _PHI], [0.0, -1.0, -_PHI], [0.0, 1.0, -_PHI],
    [_PHI, 0.0, -1.0], [_PHI, 0.0, 1.0], [-_PHI, 0.0, -1.0], [-_PHI, 0.0, 1.0],
])

_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


@dataclass
class SurfaceMesh:
    """Simplicial mesh with per-vertex weight samples."""

    vertices: np.ndarray              # (V, 2) or (V, 3) embedded coordinates
    cells: np.ndarray                 # (C, 2) segments or (C, 3) triangles
    u: np.ndarray                     # weight u at vertices
    boundary_loop: np.ndarray = None  # ordered boundary vertex ids (open meshes)
    level: int = None                 # generator level of the vertex ids

    def __post_init__(self):
        if self.level is None:
            return
        if self.level < 0:
            raise ValueError("level must be >= 0")
        name, size, _ = self._generator
        if len(self.vertices) != size:
            raise ValueError(f"{name}({self.level}) has {size} vertices, "
                             f"this mesh {len(self.vertices)}")

    @property
    def cell_dim(self):
        return self.cells.shape[1] - 1

    @property
    def _generator(self):
        """Name, size at ``level`` and prolongation of the generator of a
        segment mesh (circle_mesh), closed triangle mesh (icosphere) or open
        one (disk_mesh)."""
        if self.cell_dim == 1:
            return "circle_mesh", 2 ** (self.level + 4), circle_prolongation
        if self.boundary_loop is None:
            return ("icosphere", 10 * 4 ** self.level + 2,
                    icosphere_prolongation)
        rings = 4 * 2 ** self.level
        return "disk_mesh", 1 + 3 * rings * (rings + 1), disk_prolongation

    def prolongation(self, level):
        """Interpolation from ``level - 1`` to ``level`` of this mesh's
        generator, and the fine ids of the coarse vertices in order."""
        name, _, prolong = self._generator
        if name != "icosphere":
            return prolong(level)
        faces = self.cells  # faces 4f .. 4f + 3 begin at face f's corners
        for _ in range(self.level - level):
            faces = faces[:, 0].reshape(-1, 4)[:, :3]
        return prolong(faces)

    def with_weight(self, u_fn):
        """Copy with u sampled at the vertices in one call.

        ``u_fn`` receives the coordinate rows ``vertices.T``, so ``v[2]`` is
        every vertex's z; a constant result is broadcast to all vertices.
        """
        u = np.empty(len(self.vertices))
        u[:] = u_fn(self.vertices.T)
        return replace(self, u=u)


def build_mesh(kind, level):
    """Closed unit mesh: ``circle`` (segments) or ``icosphere`` (triangles)."""
    if kind == "circle":
        return circle_mesh(level)
    if kind == "icosphere":
        return icosphere(level)
    raise UnsupportedKind(f"unknown mesh kind {kind!r}")


def circle_mesh(level):
    """Uniform closed polygon with 2^(level+4) segments."""
    if level < 0:
        raise ValueError("level must be >= 0")
    count = 2 ** (level + 4)
    angles = 2.0 * np.pi * np.arange(count) / count
    vertices = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    cells = np.stack([np.arange(count), (np.arange(count) + 1) % count], axis=-1)
    return SurfaceMesh(vertices=vertices, cells=cells, u=np.zeros(count),
                       level=level)


def circle_prolongation(level):
    """Interpolation from circle_mesh(level - 1) to circle_mesh(level), and
    the fine ids of the coarse vertices: coarse vertex k is bit for bit fine
    vertex 2k, and fine vertex 2k + 1 lies between coarse k and k + 1."""
    k = np.arange(2 ** (level + 3))
    return _bisection(2 * k, 2 * k + 1, np.stack([k, np.roll(k, -1)], axis=1))


def _bisection(nested, new, ends):
    """Prolongation in which fine vertex ``nested[k]`` takes coarse vertex
    k alone and fine vertex ``new[j]`` half of each coarse vertex in
    ``ends[j]``; and ``nested``."""
    rows = np.r_[nested, np.repeat(new, 2)]
    cols = np.r_[np.arange(len(nested)), ends.ravel()]
    weights = np.r_[np.ones(len(nested)), np.full(ends.size, 0.5)]
    return scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(
        len(nested) + len(new), len(nested))), nested


def _normalize(m):
    """Each row of ``m`` divided by its length.

    The length is the square root of the row's dot product, as
    np.linalg.norm computes it for one vector; norm(axis=1), einsum or a
    plain sum can differ in the last bit, which moves every icosphere
    eigenvalue.
    """
    return m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]


def icosphere(level):
    """Icosahedron subdivided ``level`` times, vertices projected to the sphere."""
    if level < 0:
        raise ValueError("level must be >= 0")
    verts = _normalize(_ICO_VERTS)
    faces = _ICO_FACES.copy()
    for _ in range(level):
        # Edges ab, bc, ca of every face in face order; each distinct edge
        # gets the next vertex id at its first appearance.
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(edges[:, 0] * len(verts) + edges[:, 1],
                                      return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
        new = edges[np.sort(first)]
        verts = np.concatenate(
            [verts, _normalize(verts[new[:, 0]] + verts[new[:, 1]])])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return SurfaceMesh(vertices=verts, cells=faces, u=np.zeros(len(verts)),
                       level=level)


def icosphere_prolongation(faces):
    """Interpolation to the icosphere with ``faces`` from the one a level
    below, and the fine ids of the coarse vertices.  The coarse vertices
    are the first fine ones, and fine faces 4f .. 4f + 3 split coarse face
    f = abc as (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca); so each
    new vertex is read off with the ends of its parent edge."""
    faces = faces.reshape(-1, 12)
    new, first = np.unique(faces[:, [1, 4, 2]], return_index=True)
    ends = faces[:, [0, 3, 3, 6, 6, 0]].reshape(-1, 2)[first]
    return _bisection(np.arange(new[0]), new, ends)


def disk_mesh(level):
    """Shape-regular triangulation of the unit disk: ring j has 6j vertices.

    Returns a mesh whose ``boundary_loop`` lists the outer ring in order.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    rings = 2 ** level * 4
    # Ring j >= 1 holds vertices ring_start[j] .. ring_start[j] + 6j - 1.
    ring_start = np.concatenate([[0], 1 + 3 * np.arange(1, rings + 1)
                                 * np.arange(rings)])
    ring = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    k = np.arange(1, len(ring) + 1) - ring_start[ring]
    r = ring / rings
    a = 2.0 * np.pi * k / (6 * ring)
    vertices = np.concatenate([[[0.0, 0.0]],
                               np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)])
    # Innermost fan around the center.
    fan = np.stack([np.zeros(6, dtype=int), 1 + np.arange(6),
                    1 + (np.arange(6) + 1) % 6], axis=-1)
    # Between ring j (inner, 6j verts) and ring j+1 (outer, 6(j+1) verts),
    # each of the 6 sectors zig-zags j inner and j+1 outer nodes.  Slot q of
    # the sector's 2j+1 triangles is at step q // 2 and spans two outer
    # nodes (q even) or two inner nodes (q odd).
    per_ring = 6 * (2 * np.arange(1, rings) + 1)
    j = np.repeat(np.arange(1, rings), per_ring)
    slot = np.arange(len(j)) - np.repeat(np.cumsum(per_ring) - per_ring, per_ring)
    sector, q = np.divmod(slot, 2 * j + 1)
    step, odd = np.divmod(q, 2)
    inner0, outer0 = ring_start[j], ring_start[j + 1]
    ni, no = 6 * j, 6 * (j + 1)
    ii = sector * j + step       # index within inner ring
    oo = sector * (j + 1) + step  # index within outer ring
    zigzag = np.stack([inner0 + ii % ni,
                       outer0 + (oo + odd) % no,
                       np.where(odd == 1, inner0 + (ii + 1) % ni,
                                outer0 + (oo + 1) % no)], axis=-1)
    boundary = np.arange(ring_start[rings], len(vertices))
    return SurfaceMesh(vertices=vertices, cells=np.concatenate([fan, zigzag]),
                       u=np.zeros(len(vertices)), boundary_loop=boundary,
                       level=level)


def disk_prolongation(level):
    """Interpolation from disk_mesh(level - 1) to disk_mesh(level), and the
    fine ids of the coarse vertices.  Fine ring 2j lies on coarse ring j and
    ring 2j + 1 halfway between j and j + 1; on each such coarse ring c, fine
    vertex (J, K) sits at index K c / J, between two neighbours.  So (2j, 2k)
    takes (j, k) alone, and the boundary the coarse boundary alone."""
    rings = 2 ** level * 4
    ring = np.repeat(np.arange(rings + 1, dtype=np.int32),
                     [1, *(6 * np.arange(1, rings + 1))])
    k = np.arange(len(ring), dtype=np.int32) - (ring > 0) - 3 * ring * (ring - 1)
    fine, odd = np.maximum(ring, 1), ring % 2
    cols, weights = np.empty((len(ring), 4), np.int32), np.empty((len(ring), 4))
    for q, c, share in ((0, ring // 2, 2 - odd), (2, (ring + 1) // 2, odd)):
        pos, rem = np.divmod(k * c, fine)
        start, count = (c > 0) + 3 * c * (c - 1), np.maximum(6 * c, 1)
        for step, w in ((0, fine - rem), (1, rem)):
            cols[:, q + step] = start + (pos + step) % count
            weights[:, q + step] = share * w / (2 * fine)
    keep = weights != 0  # rem = 0 and an even ring's second share: no entry
    return scipy.sparse.csr_matrix(
        (weights[keep], cols[keep], np.r_[0, np.cumsum(keep.sum(axis=1))]),
        shape=(len(ring), 1 + 3 * rings * (rings + 2) // 4)), np.flatnonzero(
            (odd == 0) & (k % 2 == 0))


def hemisphere_mesh(level):
    """Disk mesh mapped onto the upper unit hemisphere (polar-linear map)."""
    disk = disk_mesh(level)
    xy = disk.vertices
    r = np.linalg.norm(xy, axis=1)
    theta = r * (np.pi / 2.0)
    direction = np.where(r[:, None] > 0, xy / np.maximum(r, 1e-300)[:, None], 0.0)
    s, z = np.sin(theta), np.cos(theta)
    return replace(disk, vertices=np.stack(
        [s * direction[:, 0], s * direction[:, 1], z], axis=-1))

