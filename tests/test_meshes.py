"""Mesh generators: combinatorics and geometry."""

from dataclasses import replace

import numpy as np
import pytest

from affconn import spectral
from affconn.errors import DegenerateCell, UnsupportedKind
from affconn.meshes import (_ICO_FACES, _ICO_VERTS, build_mesh,
                            circle_mesh, disk_mesh, hemisphere_mesh,
                            icosphere)
from oracles import (cell_measures, check_closed, check_nondegenerate,
                     circle_prolongation, disk_prolongation,
                     icosphere_prolongation, peak_bytes,
                     vectorized_disk_mesh)


def icosphere_by_loops(level):
    """Edge-dictionary construction of ``icosphere``, kept as reference."""
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(level):
        midpoint = {}
        new_faces = []

        def mid(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=int)


def disk_mesh_by_loops(level):
    """Ring-by-ring loop construction of ``disk_mesh``, kept as reference."""
    rings = 2 ** level * 4
    verts = [(0.0, 0.0)]
    ring_start = [0]
    for j in range(1, rings + 1):
        ring_start.append(len(verts))
        r = j / rings
        for k in range(6 * j):
            a = 2.0 * np.pi * k / (6 * j)
            verts.append((r * np.cos(a), r * np.sin(a)))
    cells = [(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)]
    for j in range(1, rings):
        inner0, outer0 = ring_start[j], ring_start[j + 1]
        ni, no = 6 * j, 6 * (j + 1)
        for sector in range(6):
            ii, oo = sector * j, sector * (j + 1)
            for step in range(j):
                cells.append((inner0 + (ii + step) % ni,
                              outer0 + (oo + step) % no,
                              outer0 + (oo + step + 1) % no))
                cells.append((inner0 + (ii + step) % ni,
                              outer0 + (oo + step + 1) % no,
                              inner0 + (ii + step + 1) % ni))
            cells.append((inner0 + (ii + j) % ni,
                          outer0 + (oo + j) % no,
                          outer0 + (oo + j + 1) % no))
    return np.array(verts), np.array(cells, dtype=int), np.arange(
        ring_start[rings], len(verts))


class TestClosedMeshes:
    def test_circle_level_0(self):
        mesh = build_mesh("circle", 0)
        assert len(mesh.cells) == 16
        assert check_closed(mesh)

    @pytest.mark.parametrize("level,verts,cells", [(0, 12, 20), (2, 162, 320)])
    def test_icosphere_counts(self, level, verts, cells):
        mesh = build_mesh("icosphere", level)
        assert len(mesh.vertices) == verts
        assert len(mesh.cells) == cells
        assert check_closed(mesh)

    @pytest.mark.parametrize("level", [0, 1, 3, 5])
    def test_icosphere_matches_loop_construction(self, level):
        mesh = icosphere(level)
        verts, cells = icosphere_by_loops(level)
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.cells, cells)
        assert mesh.cells.dtype == cells.dtype

    def test_icosphere_vertices_on_sphere(self):
        mesh = icosphere(3)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_sphere_area_converges(self):
        area = np.sum(cell_measures(icosphere(4)))
        assert area == pytest.approx(4 * np.pi, rel=2e-3)

    def test_circle_length(self):
        length = np.sum(cell_measures(circle_mesh(5)))
        assert length == pytest.approx(2 * np.pi, rel=1e-4)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedKind):
            build_mesh("torus", 1)


class TestOpenMeshes:
    def test_disk_boundary_loop(self):
        mesh = disk_mesh(2)
        # Boundary edges appear once, interior edges twice.
        counts = {}
        for a, b, c in mesh.cells:
            for e in ((a, b), (b, c), (c, a)):
                key = tuple(sorted(e))
                counts[key] = counts.get(key, 0) + 1
        boundary_edges = [e for e, k in counts.items() if k == 1]
        assert len(boundary_edges) == len(mesh.boundary_loop)
        assert set(v for e in boundary_edges for v in e) == set(mesh.boundary_loop)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_disk_matches_loop_construction(self, level):
        mesh = disk_mesh(level)
        verts, cells, boundary = disk_mesh_by_loops(level)
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.cells, cells)
        assert np.array_equal(mesh.boundary_loop, boundary)

    # The ring-by-ring cells fill one preallocated array; the all-at-once
    # builder's arrays are per triangle.
    @pytest.mark.parametrize("level", range(6))
    def test_disk_keeps_the_bytes_of_the_vectorized_builder(self, level):
        mesh = disk_mesh(level)
        verts, cells = vectorized_disk_mesh(level)
        assert mesh.vertices.dtype == verts.dtype
        assert mesh.cells.dtype == cells.dtype
        assert mesh.vertices.tobytes() == verts.tobytes()
        assert mesh.cells.tobytes() == cells.tobytes()

    def test_disk_peak_memory(self):
        # The mesh itself holds 3.6 MB; one ring's index arrays are small.
        assert peak_bytes(disk_mesh, 5) <= 7e6

    def test_disk_area(self):
        assert np.sum(cell_measures(disk_mesh(3))) == pytest.approx(
            np.pi, rel=2e-3)

    def test_disk_positive_orientation(self):
        mesh = disk_mesh(2)
        v = mesh.vertices
        e1 = v[mesh.cells[:, 1]] - v[mesh.cells[:, 0]]
        e2 = v[mesh.cells[:, 2]] - v[mesh.cells[:, 0]]
        signed = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.min(signed) > 0

    def test_hemisphere_area(self):
        assert np.sum(cell_measures(hemisphere_mesh(4))) == pytest.approx(
            2 * np.pi, rel=2e-3)

    def test_hemisphere_boundary_on_equator(self):
        mesh = hemisphere_mesh(3)
        z = mesh.vertices[mesh.boundary_loop, 2]
        assert np.max(np.abs(z)) <= 1e-12

    # icosphere leaves the refusal to SurfaceMesh, which gets its 12
    # vertices; circle_mesh and disk_mesh refuse before a count turns float.
    @pytest.mark.parametrize("make", [
        circle_mesh, icosphere, disk_mesh, hemisphere_mesh,
        lambda level: replace(disk_mesh(3), level=level)])
    def test_negative_level_rejected(self, make):
        for level in (-1, -5):
            with pytest.raises(ValueError, match="level must be >= 0"):
                make(level)

    @pytest.mark.parametrize("make", [circle_mesh, icosphere, disk_mesh,
                                      hemisphere_mesh])
    def test_level_is_recorded_and_kept_by_with_weight(self, make):
        mesh = make(2)
        assert mesh.level == 2
        assert mesh.with_weight(lambda v: 0.1 * v[0]).level == 2

    @pytest.mark.parametrize("level,count", [(2, 817), (4, 12481)])
    def test_level_must_match_the_vertex_count(self, level, count):
        message = rf"disk_mesh\({level}\) has {count} vertices, this mesh 3169"
        with pytest.raises(ValueError, match=message):
            replace(disk_mesh(3), level=level)

    @pytest.mark.parametrize("make,message", [
        (circle_mesh, r"circle_mesh\(2\) has 64 vertices, this mesh 128"),
        (icosphere, r"icosphere\(2\) has 162 vertices, this mesh 642")])
    def test_each_kind_checks_its_vertex_count(self, make, message):
        with pytest.raises(ValueError, match=message):
            replace(make(3), level=2)


def finest(mesh, n=None):
    """``spectral._bisection``'s interpolation to ``mesh`` from the level
    below, on the columns of the coarse vertices among the first ``n``
    (all by default), and the fine ids of the coarse vertices."""
    n = len(mesh.vertices) if n is None else n
    return next(spectral._bisection(mesh, n)), mesh.generator[2](mesh.level)


def coarse_edges(mesh):
    """Every edge of ``mesh``'s cells, each as a sorted pair."""
    return {tuple(sorted(c)) for cell in mesh.cells
            for c in zip(cell, np.roll(cell, -1))}


@pytest.mark.parametrize("make,level", [
    (circle_mesh, 1), (circle_mesh, 6), (icosphere, 1), (icosphere, 4)])
class TestClosedProlongation:
    def test_nested_vertices_take_their_coarse_vertex_alone(self, make,
                                                            level):
        fine, coarse = make(level), make(level - 1)
        p, nested = finest(fine)
        assert p.shape == (len(fine.vertices), len(coarse.vertices))
        assert fine.vertices[nested].tobytes() == coarse.vertices.tobytes()
        rows = p[nested].tocoo()
        assert np.array_equal(rows.row, np.arange(len(nested)))
        assert np.array_equal(rows.col, np.arange(len(nested)))
        assert np.all(rows.data == 1.0)

    # A new vertex is its parent edge's midpoint pushed out to the unit
    # circle or sphere.
    def test_new_vertices_take_half_of_each_end_of_an_edge(self, make,
                                                          level):
        fine, coarse = make(level), make(level - 1)
        p, nested = finest(fine)
        new = np.setdiff1d(np.arange(len(fine.vertices)), nested)
        rows = p[new]
        assert np.all(np.diff(rows.indptr) == 2) and np.all(rows.data == 0.5)
        mid = rows @ coarse.vertices
        mid /= np.linalg.norm(mid, axis=1)[:, None]
        assert np.max(np.abs(mid - fine.vertices[new])) <= 1e-15
        assert {tuple(rows.indices[k:k + 2])
                for k in rows.indptr[:-1]} <= coarse_edges(coarse)


def same_bits(p, q):
    """CSR matrices with the same arrays, bit for bit."""
    return (p.shape == q.shape and p.indptr.tobytes() == q.indptr.tobytes()
            and p.indices.tobytes() == q.indices.tobytes()
            and p.data.tobytes() == q.data.tobytes())


# One walk over the cells gives the circle and the icosphere the
# interpolations their hand-derived formulas gave, at every level below
# the top one.
@pytest.mark.parametrize("make,prolongation,top", [
    *[(circle_mesh, circle_prolongation, top) for top in range(1, 7)],
    *[(icosphere, icosphere_prolongation, top) for top in range(1, 6)]])
def test_the_walk_keeps_the_bits_of_the_closed_prolongations(
        make, prolongation, top):
    mesh = make(top)
    walk = list(spectral._bisection(mesh, len(mesh.vertices)))
    assert len(walk) == top
    for level, p in zip(range(top, 0, -1), walk):
        q, nested = prolongation(level)
        assert same_bits(p, q)
        assert np.array_equal(mesh.generator[2](level), nested)


# The Dirichlet solve's walk over the 49,537-vertex hemisphere.
def test_the_walk_peak_memory_on_hemisphere_5():
    mesh = hemisphere_mesh(5)
    interior = len(mesh.vertices) - len(mesh.boundary_loop)
    walk = spectral._bisection
    assert peak_bytes(lambda: list(walk(mesh, interior))) <= 7e6


def disk_ring(mesh):
    """The ring of each disk_mesh vertex."""
    rings = 4 * 2 ** mesh.level
    return np.rint(np.linalg.norm(mesh.vertices, axis=1) * rings).astype(int)


@pytest.mark.parametrize("level", [2, 5])
class TestDiskProlongation:
    def test_nested_vertices_take_their_coarse_vertex_alone(self, level):
        fine, coarse = disk_mesh(level), disk_mesh(level - 1)
        p, nested = finest(fine)
        assert fine.vertices[nested].tobytes() == coarse.vertices.tobytes()
        rows = p[nested].tocoo()
        assert np.array_equal(rows.row, np.arange(len(nested)))
        assert np.array_equal(rows.col, np.arange(len(nested)))
        assert np.all(rows.data == 1.0)

    # Each row is 1 on a nested vertex or 1/2-1/2 on the two ends of a
    # coarse edge, the one its vertex splits: that edge's midpoint lies
    # within 0.3 ring spacings of the vertex (2 - sqrt(3) at most).
    def test_rows_split_an_edge_of_the_level_below(self, level):
        fine, coarse = disk_mesh(level), disk_mesh(level - 1)
        p, nested = finest(fine)
        assert p.shape == (len(fine.vertices), len(coarse.vertices))
        new = np.setdiff1d(np.arange(len(fine.vertices)), nested)
        rows = p[new]
        assert np.all(np.diff(rows.indptr) == 2) and np.all(rows.data == 0.5)
        assert {tuple(rows.indices[k:k + 2])
                for k in rows.indptr[:-1]} <= coarse_edges(coarse)
        gap = np.linalg.norm(rows @ coarse.vertices - fine.vertices[new],
                             axis=1)
        assert np.max(gap) <= 0.3 / (4 * 2 ** level)

    # An even-ring vertex lies on a coarse ring, on a coarse vertex or
    # halfway between two, so interpolating by ring position gave it the
    # same row; an odd-ring vertex's row differs.
    def test_even_rings_keep_the_rows_of_the_ring_interpolation(self, level):
        fine = disk_mesh(level)
        p, _ = finest(fine)
        q, _ = disk_prolongation(level)
        even = np.flatnonzero(disk_ring(fine) % 2 == 0)
        assert (p[even] != q[even]).nnz == 0
        odd = np.flatnonzero(disk_ring(fine) % 2 == 1)
        assert (p[odd] != q[odd]).nnz > 0

    def test_boundary_ring_takes_only_the_coarse_boundary_ring(self, level):
        fine, coarse = disk_mesh(level), disk_mesh(level - 1)
        p, _ = finest(fine)
        cols = p[fine.boundary_loop].tocoo().col
        assert set(cols.tolist()) == set(coarse.boundary_loop.tolist())
        # The boundary ring is the last ids, so the interior is a prefix.
        for mesh in (fine, coarse):
            size = len(mesh.vertices)
            assert np.array_equal(mesh.boundary_loop, np.arange(
                size - len(mesh.boundary_loop), size))

    # The Dirichlet solve's P keeps the coarse interior's columns, which
    # leaves the fine boundary rows empty.
    def test_interior_columns_leave_the_boundary_rows_empty(self, level):
        fine, coarse = disk_mesh(level), disk_mesh(level - 1)
        interior = len(fine.vertices) - len(fine.boundary_loop)
        p, _ = finest(fine, interior)
        full, _ = finest(fine)
        size = len(coarse.vertices) - len(coarse.boundary_loop)
        assert p.shape == (len(fine.vertices), size)
        assert p[interior:].nnz == 0
        assert (p[:interior] != full[:interior, :size]).nnz == 0


class TestQuality:
    def test_nondegenerate(self):
        for mesh in (circle_mesh(2), icosphere(2), disk_mesh(2)):
            assert check_nondegenerate(mesh)

    def test_degenerate_detected(self):
        mesh = disk_mesh(1)
        mesh.vertices[1] = mesh.vertices[2]
        with pytest.raises(DegenerateCell):
            check_nondegenerate(mesh)

    def test_with_weight_samples_vertices(self):
        mesh = icosphere(1).with_weight(lambda v: 0.2 * v[2] ** 2)
        assert mesh.u == pytest.approx(0.2 * mesh.vertices[:, 2] ** 2)

    # with_weight evaluates u_fn once on the coordinate rows; the loop over
    # single vertices is the reference, bit for bit.
    @pytest.mark.parametrize("u_fn", [
        lambda v: 0.1 * v[2] ** 2, lambda v: 0.3 * v[0] + 0.9,
        lambda v: np.sin(v[0]) * np.exp(v[1]) - v[2] / 3.0,
        lambda v: 0.0, lambda v: 2,
    ])
    def test_with_weight_matches_the_vertex_loop(self, u_fn):
        mesh = hemisphere_mesh(2)
        loop = np.array([float(u_fn(v)) for v in mesh.vertices])
        u = mesh.with_weight(u_fn).u
        assert u.dtype == np.float64 and u.shape == loop.shape
        assert u.tobytes() == loop.tobytes()

