"""Simplicial meshes of closed curves, spheres, disks, and hemispheres.

Vertices live in Euclidean embedding space (R^2 or R^3); segment lengths
and triangle areas of the embedded simplices supply the induced metric to
the finite element assembly.  All generators are deterministic.
"""

from dataclasses import dataclass, replace

import numpy as np

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
        name, size, _ = self.generator
        if len(self.vertices) != size(self.level):
            raise ValueError(f"{name}({self.level}) has {size(self.level)} "
                             f"vertices, this mesh {len(self.vertices)}")

    @property
    def cell_dim(self):
        return self.cells.shape[1] - 1

    @property
    def generator(self):
        """Name, vertex count at a level and ids there of the level below's
        vertices, of the generator of a segment mesh (circle_mesh), closed
        triangle mesh (icosphere) or open one (disk_mesh)."""
        if self.cell_dim == 1:
            return ("circle_mesh", lambda level: 2 ** (level + 4),
                    lambda level: np.arange(0, 2 ** (level + 4), 2))
        if self.boundary_loop is None:
            return ("icosphere", lambda level: 10 * 4 ** level + 2,
                    lambda level: np.arange(10 * 4 ** (level - 1) + 2))
        return ("disk_mesh", lambda level: 1 + 12 * 2 ** level * (
            4 * 2 ** level + 1), _disk_nested)

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
    # Refused here: below -4 the count 2 ** (level + 4) is a float.
    if level < 0:
        raise ValueError("level must be >= 0")
    count = 2 ** (level + 4)
    angles = 2.0 * np.pi * np.arange(count) / count
    vertices = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    cells = np.stack([np.arange(count), (np.arange(count) + 1) % count], axis=-1)
    return SurfaceMesh(vertices=vertices, cells=cells, u=np.zeros(count),
                       level=level)


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


def disk_mesh(level):
    """Shape-regular triangulation of the unit disk: ring j has 6j vertices.

    Returns a mesh whose ``boundary_loop`` lists the outer ring in order.
    """
    # Refused here: below 0 the ring count 2 ** level * 4 is a float.
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
    # Ring by ring: between ring j (inner; the center alone at j = 0, else
    # 6j verts) and ring j+1 (outer, 6(j+1) verts), each of the 6 sectors
    # zig-zags j inner and j+1 outer nodes.  Slot q of the sector's 2j+1
    # triangles is at step q // 2 and spans two outer nodes (q even) or two
    # inner nodes (q odd).
    cells = np.empty((6 * rings * rings, 3), dtype=int)
    for j in range(rings):
        sector, q = np.divmod(np.arange(6 * (2 * j + 1)), 2 * j + 1)
        step, odd = np.divmod(q, 2)
        inner0, outer0 = ring_start[j], ring_start[j + 1]
        ni, no = max(6 * j, 1), 6 * (j + 1)
        ii = sector * j + step       # index within inner ring
        oo = sector * (j + 1) + step  # index within outer ring
        cells[6 * j * j:6 * (j + 1) ** 2] = np.stack(
            [inner0 + ii % ni, outer0 + (oo + odd) % no,
             np.where(odd == 1, inner0 + (ii + 1) % ni,
                      outer0 + (oo + 1) % no)], axis=-1)
    boundary = np.arange(ring_start[rings], len(vertices))
    return SurfaceMesh(vertices=vertices, cells=cells,
                       u=np.zeros(len(vertices)), boundary_loop=boundary,
                       level=level)


def _disk_nested(level):
    """Ids in disk_mesh(level) of the vertices of disk_mesh(level - 1):
    ring 2j's even vertices are ring j's, in order."""
    rings = 4 * 2 ** level
    ring = np.repeat(np.arange(rings + 1), [1, *(6 * np.arange(1, rings + 1))])
    k = np.arange(len(ring)) - (ring > 0) - 3 * ring * (ring - 1)
    return np.flatnonzero((ring % 2 == 0) & (k % 2 == 0))


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

