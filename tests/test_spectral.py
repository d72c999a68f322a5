"""Discrete eigenproblems, the collocation oracle, and the proof chain."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

from affconn import spectral
from affconn.charts import WeightParams
from affconn.errors import (DegenerateCell, GeometryError, MeshNotTwoDim,
                            SingularSystem, SolverNoConvergence)
from affconn.meshes import (SurfaceMesh, build_mesh, circle_mesh, disk_mesh,
                            hemisphere_mesh, icosphere)
from affconn.operators import Hypersurface
from affconn.scenarios import get_scenario
from affconn.spectral import (assemble, eigenvalues, harmonic_extension_2d,
                              proof_chain_inequality, recover_normal_flux,
                              smallest_nonzero_eigenvalue)
from affconn.suite import check_choi_wang
from oracles import (cell_measures, circle_collocation_eigenvalues,
                     closed_form_assemble, dirichlet_lu, dot_kernel,
                     force_path, full_product_flux, halved_scatter,
                     nested_dissection,
                     peak_bytes, plain_assemble, polyline_flux,
                     polyline_pairing, shift_invert_eigenvalues,
                     sliced_harmonic_extension, sorted_scatter)

P0 = WeightParams(0.0, 0.0)
PW = WeightParams(1.0, 0.0)


def polygon_eigenvalues(n, k):
    """Exact P1 eigenvalues of the uniform n-gon inscribed in the unit circle.

    lambda_k = 6 (1 - cos t) / (h^2 (2 + cos t)) with t = 2 pi k / n and
    h = 2 sin(pi / n); 1 - cos t is written as 2 sin^2(t / 2) to avoid
    cancellation at small t.
    """
    t = 2.0 * np.pi * np.asarray(k) / n
    h = 2.0 * np.sin(np.pi / n)
    one_minus_cos = 2.0 * np.sin(0.5 * t) ** 2
    return 6.0 * one_minus_cos / (h * h * (3.0 - one_minus_cos))


class TestAssembly:
    @pytest.mark.parametrize("kind,level", [("circle", 4), ("icosphere", 2)])
    def test_constants_in_kernel_and_symmetry(self, kind, level):
        prob = assemble(build_mesh(kind, level), WeightParams(0.7, -0.3))
        a = prob.stiffness
        assert np.max(np.abs(a @ np.ones(prob.size))) <= 1e-12
        assert abs(a - a.T).max() <= 1e-12
        b = prob.mass.toarray()
        assert np.allclose(b, b.T, atol=1e-14)
        assert np.linalg.eigvalsh(b)[0] > 0

    def test_weight_constant_on_surface_matches_unweighted(self):
        # The ambient weight restricts to a constant on the equator.
        mesh = build_mesh("circle", 4)
        plain = assemble(mesh, P0)
        weighted = assemble(mesh, PW)
        assert abs(plain.stiffness - weighted.stiffness).max() <= 1e-14
        assert abs(plain.mass - weighted.mass).max() <= 1e-14

    # U + U^T is symmetric bit for bit; only the order in which each
    # diagonal entry sums its cells differs from the plain COO sum.
    @pytest.mark.parametrize("mesh_of", [
        lambda: circle_mesh(6),
        lambda: icosphere(5),
        lambda: weighted_hemisphere(5)[0],
        lambda: disk_mesh(5).with_weight(lambda v: 0.3 * v[0] + 0.2 * v[1]),
    ], ids=["circle-6", "icosphere-5", "weighted-hemisphere-5", "disk-5"])
    def test_pair_sum_is_symmetric_and_within_two_ulp(self, mesh_of):
        mesh = mesh_of()
        prob = assemble(mesh, PW)
        for new, ref in zip((prob.stiffness, prob.mass),
                            plain_assemble(mesh, PW)):
            assert (new != new.T).nnz == 0
            assert ulps(new, ref) <= 2

    def test_scaling_both_matrices_leaves_spectrum(self):
        prob = assemble(build_mesh("circle", 4), P0)
        lam = smallest_nonzero_eigenvalue(prob)
        prob.stiffness *= 2.0
        prob.mass *= 2.0
        assert smallest_nonzero_eigenvalue(prob) == pytest.approx(lam)


def ulps(new, ref):
    """Largest distance of ``new`` from ``ref`` in units of ``ref``'s last
    place, entry by entry; sparse matrices must share their pattern."""
    if scipy.sparse.issparse(ref):
        new, ref = new.tocsr(), ref.tocsr()
        new.sort_indices()
        ref.sort_indices()
        assert np.array_equal(new.indptr, ref.indptr)
        assert np.array_equal(new.indices, ref.indices)
        new, ref = new.data, ref.data
    return np.max(np.abs(new - ref) / np.spacing(np.abs(ref)))


def weighted_hemisphere(level):
    mesh = hemisphere_mesh(level).with_weight(lambda v: 0.2 * v[2] ** 2)
    loop = mesh.boundary_loop
    return mesh, np.sin(np.arctan2(mesh.vertices[loop, 1],
                                   mesh.vertices[loop, 0]))


def weighted_disk(level):
    return disk_mesh(level).with_weight(lambda v: 0.3 * v[0] + 0.2 * v[1])


# Every mesh kind at the levels the suite and the multigrid hierarchy use.
KERNEL_MESHES = (
    [pytest.param(circle_mesh, level, id=f"circle-{level}")
     for level in range(2, 7)]
    + [pytest.param(icosphere, level, id=f"icosphere-{level}")
       for level in range(1, 6)]
    + [pytest.param(weighted_disk, level, id=f"disk-{level}")
       for level in range(1, 6)]
    + [pytest.param(lambda level: weighted_hemisphere(level)[0], level,
                    id=f"weighted-hemisphere-{level}")
       for level in range(1, 6)])


class TestP1Kernel:
    """``spectral._p1_kernel`` against the closed form of each cell kind."""

    # The Gram route does the triangle closed form's arithmetic, operation
    # for operation, so every triangle stiffness and unweighted mass keeps
    # its bits.
    @pytest.mark.parametrize("mesh_of,params,mass_too", [
        (lambda: icosphere(5), P0, True),
        (lambda: weighted_hemisphere(5)[0], PW, False),
        (lambda: disk_mesh(5).with_weight(lambda v: 0.3 * v[0] + 0.2 * v[1]),
         PW, False),
    ], ids=["icosphere", "weighted-hemisphere", "weighted-disk"])
    def test_triangle_matrices_keep_their_bits(self, mesh_of, params,
                                               mass_too):
        mesh = mesh_of()
        prob = assemble(mesh, params)
        stiffness, mass = closed_form_assemble(mesh, params)
        assert ulps(prob.stiffness, stiffness) == 0
        assert not mass_too or ulps(prob.mass, mass) == 0

    # 1 / L^2 * L for a segment's w / L; the weight applied after the mass
    # table rather than before; the lumped mass as row sums.
    def test_rounding_moves_within_four_ulp(self):
        circle = circle_mesh(6)
        assert ulps(assemble(circle, P0).stiffness,
                    closed_form_assemble(circle, P0)[0]) <= 4
        mesh, psi = weighted_hemisphere(5)
        assert ulps(assemble(mesh, PW).mass,
                    closed_form_assemble(mesh, PW)[1]) <= 4
        phi, a = harmonic_extension_2d(mesh, PW, psi)
        assert ulps(recover_normal_flux(mesh, a, phi),
                    polyline_flux(mesh, a, phi)) <= 4

    @pytest.mark.parametrize("mesh", [circle_mesh(4), icosphere(3),
                                      disk_mesh(3), hemisphere_mesh(3)],
                             ids=["circle", "icosphere", "disk", "hemisphere"])
    def test_gram_measures_match_cross_products(self, mesh):
        measure = spectral._p1_kernel(mesh)[0]
        assert np.max(np.abs(measure / cell_measures(mesh) - 1)) <= 2e-15

    def test_loop_pairing_matches_the_polyline_sum(self):
        mesh, psi = weighted_hemisphere(4)
        pairing = proof_chain_inequality(mesh, PW, psi, 0.5)["pairing"]
        phi, a = harmonic_extension_2d(mesh, PW, psi)
        u_b = mesh.u[mesh.boundary_loop]
        h = recover_normal_flux(mesh, a, phi) * np.exp(
            (PW.beta - PW.energy_exponent(2)) * u_b)
        assert pairing == pytest.approx(polyline_pairing(mesh, PW, psi, h),
                                        rel=1e-12)

    def test_zero_length_segment(self):
        mesh = circle_mesh(2)
        mesh.vertices[1] = mesh.vertices[0]
        with pytest.raises(DegenerateCell):
            assemble(mesh, P0)
        # A boundary loop that visits a vertex twice in a row.
        mesh, psi = weighted_hemisphere(1)
        mesh.boundary_loop = np.r_[mesh.boundary_loop, mesh.boundary_loop[-1]]
        with pytest.raises(DegenerateCell):
            proof_chain_inequality(mesh, PW, np.r_[psi, psi[-1]], 0.5)

    def test_collapsed_triangle(self):
        mesh = disk_mesh(1)
        mesh.vertices[1] = mesh.vertices[2]
        with pytest.raises(DegenerateCell):
            assemble(mesh, P0)
        with pytest.raises(DegenerateCell):
            harmonic_extension_2d(mesh, P0, np.zeros(48))

    # A NaN coordinate must stop at assemble: past it, scipy's eigh raises a
    # ValueError that no GeometryError handler catches.
    @pytest.mark.parametrize("kind", ["circle", "icosphere"])
    def test_nonfinite_vertex_is_a_degenerate_cell(self, kind):
        mesh = build_mesh(kind, 2)
        mesh.vertices[3, 0] = np.nan
        with pytest.raises(DegenerateCell):
            smallest_nonzero_eigenvalue(assemble(mesh, P0))

    # A NaN weight is named where it enters, not left to show up as a
    # singular factor or a nonpositive diagonal of the Dirichlet block.
    def test_nonfinite_weight_is_named(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            sphere = icosphere(3).with_weight(lambda v: np.log(v[2]))
            mesh, psi = weighted_hemisphere(2)
            mesh = mesh.with_weight(lambda v: np.log(v[2] - 0.5))
        with pytest.raises(GeometryError, match="non-finite weight"):
            assemble(sphere, PW)
        with pytest.raises(GeometryError, match="non-finite weight"):
            harmonic_extension_2d(mesh, PW, psi)

    # The kernel sums only the terms whose D_ia D_jb is +-1: each skipped
    # one is +-0 and each kept one exact.
    @pytest.mark.parametrize("make,level", KERNEL_MESHES)
    def test_kernel_keeps_the_bits_of_the_dot_product(self, make, level):
        mesh = make(level)
        measure, local = spectral._p1_kernel(mesh)
        ref_measure, ref_local = dot_kernel(mesh)
        assert measure.tobytes() == ref_measure.tobytes()
        assert np.ascontiguousarray(local).tobytes() == ref_local.tobytes()

    def test_kernel_peak_memory_on_the_weighted_hemisphere(self):
        assert peak_bytes(spectral._p1_kernel,
                          weighted_hemisphere(5)[0]) <= 11.5e6

    # An int32 pair's min and max are the two rows of its sort.
    @pytest.mark.parametrize("mesh_of", [
        lambda: circle_mesh(6), lambda: icosphere(3),
        lambda: weighted_hemisphere(5)[0]],
        ids=["circle-6", "icosphere-3", "weighted-hemisphere-5"])
    def test_scatter_keeps_the_bits_of_the_sorted_ends(self, mesh_of):
        mesh = mesh_of()
        local = spectral._p1_kernel(mesh)[1]
        new = spectral._scatter(mesh, np.array(local), 1.3)
        ref = sorted_scatter(mesh, np.array(local), 1.3)
        for key in ("data", "indices", "indptr"):
            assert getattr(new, key).tobytes() == getattr(ref, key).tobytes()

    # A CSR row's product sums its stored entries in order, kept by a row
    # slice.
    def test_flux_keeps_the_bits_of_the_full_product(self):
        mesh, psi = weighted_hemisphere(5)
        phi, a = harmonic_extension_2d(mesh, PW, psi)
        assert recover_normal_flux(mesh, a, phi).tobytes() == \
            full_product_flux(mesh, a, phi).tobytes()

    # Off the diagonal an entry sums at most two cells, in either order.
    # A diagonal sums its cells in cell order, which scipy's in-row sort of
    # the halved COO sum kept only in rows of at most 16 raw entries (an
    # insertion sort); in longer rows it moves by up to 2 ulp.
    @pytest.mark.parametrize("make,level", KERNEL_MESHES)
    def test_scatter_keeps_the_bits_of_the_halved_sum(self, make, level):
        mesh = make(level)
        local = spectral._p1_kernel(mesh)[1]
        new = spectral._scatter(mesh, np.array(local), 1.3)
        ref = halved_scatter(mesh, np.array(local), 1.3)
        assert (new != new.T).nnz == 0 and ulps(new, ref) <= 2
        new.sort_indices()
        ref.sort_indices()
        i, j = np.triu_indices(mesh.cell_dim + 1)
        raw = np.bincount(np.minimum(mesh.cells[:, i],
                                     mesh.cells[:, j]).ravel())
        rows = np.repeat(np.arange(new.shape[0]), np.diff(new.indptr))
        moved = new.data != ref.data
        assert np.all(rows[moved] == new.indices[moved])
        assert np.all(raw[rows[moved]] > 16)


class TestEigenvalues:
    def test_circle_spectrum(self):
        vals = eigenvalues(assemble(build_mesh("circle", 5), P0))
        assert len(vals) == 2
        assert np.allclose(vals, [0.0, 1.0], atol=2e-3)

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_circle_matches_polygon_closed_form(self, level):
        lam0, lam1 = eigenvalues(assemble(build_mesh("circle", level), P0))
        exact = polygon_eigenvalues(2 ** (level + 4), 1)
        assert abs(lam0) <= 1e-10
        assert abs(lam1 - exact) / exact <= 2e-11

    # The rule that perfbench's layer trace mirrors to tag each call.
    def test_the_solve_is_dense_exactly_below_the_cutoff(self, monkeypatch):
        prob = assemble(circle_mesh(4), P0)
        calls = []
        lobpcg = spectral._lobpcg
        monkeypatch.setattr(spectral, "_lobpcg",
                            lambda *args: calls.append(1) or lobpcg(*args))
        for cutoff, iterative in [(prob.size + 1, 0), (prob.size, 1)]:
            monkeypatch.setattr(spectral, "DENSE_CUTOFF", cutoff)
            eigenvalues(prob)
            assert len(calls) == iterative

    def test_circle_level_11_converges(self):
        # 32,768 vertices; the rounded entries of the assembled pair put its
        # own lambda_1 3.5e-11 off the closed form.
        lam = smallest_nonzero_eigenvalue(
            assemble(build_mesh("circle", 11), P0))
        assert abs(lam - polygon_eigenvalues(2 ** 15, 1)) <= 1e-9

    # Shift-invert eigsh was 4.7e-12 off here, and so are the LOBPCG Ritz
    # values; the Rayleigh quotients of the Ritz vectors are 1.4e-13 off.
    def test_circle_6_lambda1_matches_the_polygon(self):
        lam = smallest_nonzero_eigenvalue(assemble(circle_mesh(6), P0))
        exact = polygon_eigenvalues(1024, 1)
        assert abs(lam - exact) <= 1e-12 * exact

    def test_s3_classical_matches_the_shift_invert_oracle(self):
        scn = get_scenario("s3-classical")
        prob = assemble(scn.mesh(), scn.params)
        lam = smallest_nonzero_eigenvalue(prob)
        oracle = shift_invert_eigenvalues(prob, 2)[1]
        assert abs(lam - oracle) <= 1e-12 * oracle

    # 4 steps on icosphere-5 and 6 on a weighted circle-6 (the coordinates
    # start an unweighted circle at its eigenvectors); a V-cycle that is
    # damaged or lacks its coarse levels needs many more.
    @pytest.mark.parametrize("mesh", [
        icosphere(5), circle_mesh(6).with_weight(lambda v: 0.3 * v[0])],
        ids=["icosphere-5", "weighted-circle-6"])
    def test_lobpcg_converges_within_eight_steps(self, mesh, monkeypatch):
        monkeypatch.setattr(spectral, "LOBPCG_MAX_ITER", 8)
        smallest_nonzero_eigenvalue(assemble(mesh, PW))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "LOBPCG_MAX_ITER", 1)
        with pytest.raises(SolverNoConvergence, match="LOBPCG residual"):
            smallest_nonzero_eigenvalue(assemble(icosphere(4), P0))

    # Without coarse levels the NaN does not reach a Galerkin diagonal,
    # which would raise SingularSystem first.
    def test_nonfinite_ritz_matrix_raises(self):
        prob = assemble(dataclasses.replace(icosphere(4), level=None), P0)
        prob.stiffness.data[1] = np.nan  # off the diagonal of row 0
        assert prob.stiffness.indices[1] != 0
        with pytest.raises(SolverNoConvergence, match="not finite at step 0"):
            smallest_nonzero_eigenvalue(prob)

    def test_circle_first_eigenvalue_level_6(self):
        lam = smallest_nonzero_eigenvalue(assemble(build_mesh("circle", 6), P0))
        assert abs(lam - 1.0) <= 1e-4

    def test_sphere_level_4_within_one_percent(self):
        lam = smallest_nonzero_eigenvalue(
            assemble(build_mesh("icosphere", 4), P0))
        assert abs(lam - 2.0) / 2.0 <= 1e-2

    def test_dense_vs_iterative(self, monkeypatch):
        prob = assemble(build_mesh("icosphere", 3), P0)
        assert prob.size < 2000
        iterative = smallest_nonzero_eigenvalue(prob)
        force_path(monkeypatch, "dense")
        dense = smallest_nonzero_eigenvalue(prob)
        assert abs(dense - iterative) / dense <= 1e-8

    # Both paths return Rayleigh quotients; the dense Ritz values erred by
    # eps * ||A||, which put lambda_0 at 1.2e-11 on circle-6 at one BLAS
    # thread.
    @pytest.mark.parametrize("kind,level", [("circle", 4), ("circle", 5),
                                            ("circle", 6), ("icosphere", 2),
                                            ("icosphere", 3)])
    def test_both_paths_give_lambda_0_and_one_lambda_1(self, kind, level,
                                                       monkeypatch):
        prob = assemble(build_mesh(kind, level), P0)
        force_path(monkeypatch, "iterative")
        iterative = eigenvalues(prob)
        force_path(monkeypatch, "dense")
        dense = eigenvalues(prob)
        assert len(iterative) == len(dense) == 2
        assert max(abs(iterative[0]), abs(dense[0])) <= 1e-11
        assert abs(iterative[1] - dense[1]) <= 2e-11 * dense[1]

    @pytest.mark.parametrize("method", ["iterative", "dense"])
    def test_unused_vertex_in_closed_mesh_is_singular(self, method,
                                                      monkeypatch):
        force_path(monkeypatch, method)
        sphere = build_mesh("icosphere", 3)
        verts = np.vstack([sphere.vertices, [[0.1, 0.2, 0.3]]])  # in no cell
        mesh = SurfaceMesh(vertices=verts, cells=sphere.cells,
                           u=np.zeros(len(verts)))
        with pytest.raises(SingularSystem):
            smallest_nonzero_eigenvalue(assemble(mesh, P0))

    @pytest.mark.parametrize("kind,level,method", [
        ("circle", 4, "dense"), ("circle", 5, "iterative"),
        ("icosphere", 2, "dense"), ("icosphere", 3, "iterative"),
    ])
    def test_missing_constant_mode_is_refused(self, kind, level, method,
                                              monkeypatch):
        force_path(monkeypatch, method)
        prob = assemble(build_mesh(kind, level), P0)
        # Adding c * B shifts every eigenvalue by c, the constant mode too.
        prob.stiffness = prob.stiffness + 0.5 * prob.mass
        with pytest.raises(SolverNoConvergence,
                           match="constant kernel mode missing"):
            smallest_nonzero_eigenvalue(prob)

    def test_weight_shift_scales_first_eigenvalue(self):
        params = WeightParams(1.0, 0.0)
        base = build_mesh("circle", 5).with_weight(lambda v: 0.3 * v[0])
        shifted = build_mesh("circle", 5).with_weight(lambda v: 0.3 * v[0] + 0.9)
        lam0 = smallest_nonzero_eigenvalue(assemble(base, params))
        lam1 = smallest_nonzero_eigenvalue(assemble(shifted, params))
        assert lam1 / lam0 == pytest.approx(
            np.exp((params.beta - params.alpha) * 0.9), rel=1e-10)

    def test_mesh_convergence_order(self):
        errors = []
        for level in (4, 5, 6):
            lam = smallest_nonzero_eigenvalue(
                assemble(build_mesh("circle", level), P0))
            errors.append(abs(lam - 1.0))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.9


class TestCollocationOracle:
    def test_weighted_circle_cross_check(self):
        params = WeightParams(1.0, 0.0)

        def u_arc(s):
            return 0.3 * np.cos(s)

        coll = circle_collocation_eigenvalues(2 * np.pi, u_arc, params,
                                              count=128)[1]
        fem = []
        for level in (6, 7, 8):
            mesh = build_mesh("circle", level).with_weight(
                lambda v: 0.3 * v[0])
            fem.append(smallest_nonzero_eigenvalue(assemble(mesh, params)))
        richardson = fem[-1] + (fem[-1] - fem[-2]) / 3.0
        assert abs(richardson - coll) <= 1e-6

    def test_unweighted_reduces_to_integers(self):
        vals = circle_collocation_eigenvalues(2 * np.pi, lambda s: 0.0, P0,
                                              count=64)
        assert np.allclose(vals[:4], [0.0, 1.0, 1.0, 4.0], atol=1e-10)


# The three level-5 Dirichlet problems of the suite's harmonic-extension
# and proof-inequality checks, with their boundary data.
SUITE_DIRICHLET = [
    ("disk-flat", lambda scn: scn.extension_mesh(), lambda v: v[:, 0]),
    ("s2-classical", lambda scn: scn.proof_mesh(),
     lambda v: np.sin(np.arctan2(v[:, 1], v[:, 0]))),
    ("s2-weighted-quadratic", lambda scn: scn.proof_mesh(),
     lambda v: np.sin(np.arctan2(v[:, 1], v[:, 0]))),
]


def reversed_ids(mesh):
    """``mesh`` with its vertex ids in reverse order and no level."""
    order = np.arange(len(mesh.vertices))[::-1]
    return dataclasses.replace(mesh, vertices=mesh.vertices[order],
                               u=mesh.u[order], cells=order[mesh.cells],
                               boundary_loop=order[mesh.boundary_loop],
                               level=None)


def shuffled_interior(mesh):
    """``mesh`` with its interior vertex ids shuffled, its level kept."""
    size = len(mesh.vertices)
    order = np.r_[np.random.default_rng(0).permutation(
        size - len(mesh.boundary_loop)), size - len(mesh.boundary_loop):size]
    ids = np.argsort(order)
    return dataclasses.replace(mesh, vertices=mesh.vertices[order],
                               u=mesh.u[order], cells=ids[mesh.cells],
                               boundary_loop=ids[mesh.boundary_loop])


def hemisphere_problem(level, remesh):
    """The weighted hemisphere's Dirichlet problem on ``remesh(mesh)``,
    which keeps the boundary loop's vertices and their order."""
    mesh, psi = weighted_hemisphere(level)
    return remesh(mesh), PW, psi


def suite_dirichlet(name, mesh_of, data):
    scn = get_scenario(name)
    mesh = mesh_of(scn)
    return mesh, scn.params, data(mesh.vertices[mesh.boundary_loop])


class TestHarmonicExtension:
    def test_flat_disk_linear(self):
        mesh = disk_mesh(5)
        psi = mesh.vertices[mesh.boundary_loop, 0]
        phi, _ = harmonic_extension_2d(mesh, P0, psi)
        assert np.max(np.abs(phi - mesh.vertices[:, 0])) <= 1e-6

    def test_hemisphere_exact_solution(self):
        mesh = hemisphere_mesh(5)
        loop = mesh.boundary_loop
        angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
        phi, _ = harmonic_extension_2d(mesh, P0, np.sin(angle))
        theta = np.arccos(np.clip(mesh.vertices[:, 2], -1.0, 1.0))
        ang = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
        exact = np.tan(theta / 2.0) * np.sin(ang)
        assert np.max(np.abs(phi - exact)) <= 5e-6

    def test_flux_recovery_on_hemisphere(self):
        # Exact solution has phi_nu = sin(angle) on the equator.
        mesh = hemisphere_mesh(5)
        loop = mesh.boundary_loop
        angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
        phi, a = harmonic_extension_2d(mesh, P0, np.sin(angle))
        flux = recover_normal_flux(mesh, a, phi)
        assert np.max(np.abs(flux - np.sin(angle))) <= 5e-3

    def test_dirichlet_residual_on_weighted_hemisphere(self):
        mesh = hemisphere_mesh(3).with_weight(lambda v: 0.1 * v[2] ** 2)
        loop = mesh.boundary_loop
        angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
        phi, a = harmonic_extension_2d(mesh, PW, np.sin(angle))
        interior = np.setdiff1d(np.arange(len(phi)), loop)
        rows = a[interior]
        load = rows[:, loop] @ phi[loop]
        residual = rows[:, interior] @ phi[interior] + load
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(load))

    @pytest.mark.parametrize("name,mesh_of,data", SUITE_DIRICHLET)
    def test_dirichlet_residual_on_suite_problems(self, name, mesh_of, data):
        scn = get_scenario(name)
        mesh = mesh_of(scn)
        loop = mesh.boundary_loop
        phi, a = harmonic_extension_2d(mesh, scn.params,
                                       data(mesh.vertices[loop]))
        interior = np.setdiff1d(np.arange(len(phi)), loop)
        rows = a[interior]
        load = rows[:, loop] @ phi[loop]
        residual = rows[:, interior] @ phi[interior] + load
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(load))

    @pytest.mark.parametrize("name,mesh_of,data", SUITE_DIRICHLET)
    def test_matches_the_lu_oracle_on_suite_problems(self, name, mesh_of,
                                                     data):
        mesh, params, psi = suite_dirichlet(name, mesh_of, data)
        phi, _ = harmonic_extension_2d(mesh, params, psi)
        assert np.max(np.abs(phi - dirichlet_lu(mesh, params, psi))) <= 1e-12

    # Without a level the V-cycle is its smoother alone, so PCG takes more
    # steps (48 here) but stays within the default cap.
    @pytest.mark.parametrize("level,steps", [(3, 20),
                                             (None, spectral.PCG_MAX_ITER)])
    def test_matches_the_lu_oracle_on_weighted_hemisphere(self, level, steps,
                                                          monkeypatch):
        mesh = dataclasses.replace(hemisphere_mesh(3), level=level)
        mesh = mesh.with_weight(lambda v: 0.1 * v[2] ** 2)
        loop = mesh.boundary_loop
        psi = np.sin(np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0]))
        monkeypatch.setattr(spectral, "PCG_MAX_ITER", steps)
        phi, _ = harmonic_extension_2d(mesh, PW, psi)
        assert np.max(np.abs(phi - dirichlet_lu(mesh, PW, psi))) <= 1e-12

    # 12, 14 and 14 steps are needed; a damaged V-cycle needs many more.
    @pytest.mark.parametrize("name,mesh_of,data", SUITE_DIRICHLET)
    def test_pcg_converges_within_twenty_steps(self, name, mesh_of, data,
                                               monkeypatch):
        monkeypatch.setattr(spectral, "PCG_MAX_ITER", 20)
        harmonic_extension_2d(*suite_dirichlet(name, mesh_of, data))

    @pytest.mark.parametrize("name,mesh_of,data", SUITE_DIRICHLET)
    def test_factors_nothing(self, name, mesh_of, data, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        harmonic_extension_2d(*suite_dirichlet(name, mesh_of, data))

    # The stiffness is summed from one entry per local pair i < j and one
    # bincount of the diagonal, and A_II is read through A's own arrays.
    def test_peak_memory_on_the_weighted_hemisphere(self):
        mesh, psi = weighted_hemisphere(5)
        assert peak_bytes(harmonic_extension_2d, mesh, PW, psi) <= 19e6

    def test_interior_rows_share_the_memory_of_a(self, monkeypatch):
        blocks, solve = [], spectral._pcg

        def pcg(a_ii, *args):
            blocks.append(a_ii)
            return solve(a_ii, *args)

        monkeypatch.setattr(spectral, "_pcg", pcg)
        mesh, psi = weighted_hemisphere(3)
        _, a = harmonic_extension_2d(mesh, PW, psi)
        rows = blocks[0].rows
        assert rows.shape == (a.shape[0] - len(psi), a.shape[1])
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(rows, name), getattr(a, name))

    # The three suite problems, a mesh without a level (one-level cycle),
    # and one whose interior does not come first, so its rows are gathered.
    @pytest.mark.parametrize("problem", [
        *[pytest.param(lambda case=case: suite_dirichlet(*case), id=case[0])
          for case in SUITE_DIRICHLET],
        pytest.param(lambda: hemisphere_problem(
            3, lambda mesh: dataclasses.replace(mesh, level=None)),
                     id="no-level"),
        pytest.param(lambda: hemisphere_problem(2, reversed_ids),
                     id="interior-last"),
    ])
    def test_matches_the_sliced_solve_to_the_bit(self, problem):
        mesh, params, psi = problem()
        phi, _ = harmonic_extension_2d(mesh, params, psi)
        assert phi.tobytes() == sliced_harmonic_extension(
            mesh, params, psi).tobytes()

    # Its ids are not its generator's, so neither are its levels; without
    # a level the same mesh solves with a one-level cycle.
    def test_a_level_whose_bisection_the_cells_are_not_is_refused(self):
        mesh, params, psi = hemisphere_problem(3, shuffled_interior)
        with pytest.raises(ValueError, match=r"disk_mesh\(3\): a new vertex "
                           r"without two nested neighbours"):
            harmonic_extension_2d(mesh, params, psi)
        mesh = dataclasses.replace(mesh, level=None)
        phi, _ = harmonic_extension_2d(mesh, params, psi)
        assert np.max(np.abs(phi - dirichlet_lu(mesh, params, psi))) <= 1e-12

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "PCG_MAX_ITER", 2)
        with pytest.raises(SolverNoConvergence, match="PCG"):
            harmonic_extension_2d(*suite_dirichlet(*SUITE_DIRICHLET[1]))

    # 48 steps are needed with the one-level cycle and 20 with the levels;
    # only a mesh without a level has the one-level cycle to blame.
    @pytest.mark.parametrize("level", [None, 3])
    def test_a_stall_without_a_level_names_the_cause(self, level,
                                                     monkeypatch):
        mesh = dataclasses.replace(hemisphere_mesh(3), level=level)
        loop = mesh.boundary_loop
        psi = np.sin(np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0]))
        monkeypatch.setattr(spectral, "PCG_MAX_ITER", 10)
        with pytest.raises(SolverNoConvergence, match="at step 10") as err:
            harmonic_extension_2d(mesh, P0, psi)
        cause = ("the mesh has no generator level, so its multigrid is a "
                 "single damped-Jacobi level")
        assert str(err.value).endswith(cause) == (level is None)

    @pytest.mark.parametrize("data", [
        5.0, [5.0], np.zeros((48, 1)), np.zeros(47), np.zeros(49),
        np.r_[np.nan, np.zeros(47)], np.r_[np.zeros(47), np.inf],
    ])
    def test_boundary_data_must_be_one_finite_value_per_loop_vertex(
            self, data):
        mesh = disk_mesh(1)
        assert len(mesh.boundary_loop) == 48
        with pytest.raises(ValueError, match="finite boundary values"):
            harmonic_extension_2d(mesh, P0, data)

    def test_isolated_interior_vertex_is_singular(self):
        disk = disk_mesh(0)
        verts = np.vstack([disk.vertices, [[0.01, 0.02]]])  # in no cell
        mesh = SurfaceMesh(vertices=verts, cells=disk.cells,
                           u=np.zeros(len(verts)),
                           boundary_loop=disk.boundary_loop)
        with pytest.raises(SingularSystem):
            harmonic_extension_2d(mesh, P0, np.zeros(len(disk.boundary_loop)))

    def test_mesh_without_interior_keeps_the_boundary_data(self):
        mesh = SurfaceMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0],
                                              [0.0, 1.0]]),
                           cells=np.array([[0, 1, 2]]), u=np.zeros(3),
                           boundary_loop=np.array([0, 1, 2]))
        phi, _ = harmonic_extension_2d(mesh, P0, np.array([1.0, 2.0, 3.0]))
        assert phi.tolist() == [1.0, 2.0, 3.0]

    def test_segment_mesh_rejected(self):
        with pytest.raises(MeshNotTwoDim):
            harmonic_extension_2d(build_mesh("circle", 2), P0, None)


class TestProofChain:
    def test_classical_hemisphere_quantity(self):
        mesh = hemisphere_mesh(5)
        loop = mesh.boundary_loop
        angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
        result = proof_chain_inequality(mesh, P0, np.sin(angle), 1.0)
        # Analytically Q = K E - 2 T = pi - 2 pi = -pi.
        assert result["quantity"] == pytest.approx(-np.pi, abs=1e-4)
        assert result["energy"] == pytest.approx(np.pi, abs=1e-4)
        assert result["quantity"] <= 1e-4 * result["positive_scale"]

    def test_weighted_hemisphere_quantity(self):
        mesh = hemisphere_mesh(5).with_weight(lambda v: 0.2 * v[2] ** 2)
        loop = mesh.boundary_loop
        angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
        result = proof_chain_inequality(mesh, PW, np.sin(angle), 0.5)
        assert result["quantity"] <= 1e-4 * result["positive_scale"]

    def test_boundary_data_is_not_broadcast(self):
        mesh = hemisphere_mesh(2)
        with pytest.raises(ValueError, match="finite boundary values"):
            proof_chain_inequality(mesh, P0, np.array([1.0]), 1.0)


class TestCertificate:
    """The premises of the bound, a D-minimal hypersurface and K > 0, are
    probes of the choi-wang record: a failed premise fails the record and
    keeps its values."""

    def test_classical_sphere(self):
        record = check_choi_wang(get_scenario("s2-classical"))
        values = record["values"]
        assert record["passed"]
        assert values["k_best"] == pytest.approx(1.0, abs=1e-10)
        assert values["margin"] == pytest.approx(0.5, abs=1e-4)

    def test_not_d_minimal_rejected(self):
        # At (1, 0) the weight's normal derivative enters H^D on the equator.
        scn = dataclasses.replace(get_scenario("s2-substatic"), params=PW)
        record = check_choi_wang(scn)
        values = record["values"]
        assert "error" not in record and record["passed"] is False
        assert values["d_minimal_residual"] == pytest.approx(0.3, rel=1e-12)
        assert values["margin"] > 0.0

    def test_nonpositive_k_rejected(self):
        def flat_line(man):
            return Hypersurface(ambient=man, lower=(-0.5,), upper=(0.5,),
                                periodic=(False,),
                                embedding=lambda s: [s[0], 0.0 * s[0]])
        scn = dataclasses.replace(
            get_scenario("euclidean-flat"), hypersurface_factory=flat_line,
            mesh_spec=("circle", 4),
            expected={"lambda1": 1.0, "lambda1_rtol": 1e-4})
        record = check_choi_wang(scn)
        values = record["values"]
        assert "error" not in record and record["passed"] is False
        assert values["k_best"] <= 0.0
        assert values["d_minimal_residual"] <= 1e-8
        # The margin holds against its threshold; only the K > 0 probe fails.
        assert -values["margin"] <= record["threshold"]


def lu_fill(lu):
    return lu.L.nnz + lu.U.nnz


class TestNestedDissection:
    @pytest.mark.parametrize("mesh", [build_mesh("icosphere", 4),
                                      build_mesh("circle", 5)])
    def test_returns_a_permutation_of_the_vertices(self, mesh):
        order = nested_dissection(mesh)
        assert np.array_equal(np.sort(order), np.arange(len(mesh.vertices)))

    def test_fill_within_ten_percent_of_minimum_degree(self):
        mesh = build_mesh("icosphere", 4)
        prob = assemble(mesh, P0)
        mat = prob.stiffness + 0.05 * prob.mass
        order = nested_dissection(mesh)
        options = {"diag_pivot_thresh": 0.0,
                   "options": {"SymmetricMode": True}}
        nd = scipy.sparse.linalg.splu(mat[order][:, order].tocsc(),
                                      permc_spec="NATURAL", **options)
        mmd = scipy.sparse.linalg.splu(mat.tocsc(),
                                       permc_spec="MMD_AT_PLUS_A", **options)
        assert lu_fill(nd) <= 1.1 * lu_fill(mmd)
