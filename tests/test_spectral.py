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
from affconn.spectral import (_nested_dissection, assemble, eigenvalues,
                              harmonic_extension_2d, proof_chain_inequality,
                              recover_normal_flux,
                              smallest_nonzero_eigenvalue)
from affconn.suite import check_choi_wang
from oracles import (cell_measures, circle_collocation_eigenvalues,
                     closed_form_assemble, dirichlet_lu, force_path,
                     polyline_flux, polyline_pairing)

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


class TestEigenvalues:
    def test_circle_spectrum(self):
        vals = eigenvalues(assemble(build_mesh("circle", 5), P0), count=6)
        expected = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0]
        assert np.allclose(vals, expected, atol=2e-3)

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_circle_matches_polygon_closed_form(self, level):
        vals = eigenvalues(assemble(build_mesh("circle", level), P0), count=6)
        exact = polygon_eigenvalues(2 ** (level + 4), [1, 1, 2, 2, 3])
        assert abs(vals[0]) <= 1e-10
        assert np.max(np.abs(vals[1:] - exact) / exact) <= 2e-11

    def test_circle_level_11_converges(self):
        # 32,768 vertices, where a shift at the 1/h^2 scale stalled Lanczos.
        lam = smallest_nonzero_eigenvalue(
            assemble(build_mesh("circle", 11), P0))
        assert abs(lam - polygon_eigenvalues(2 ** 15, 1)) <= 1e-9

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

    @pytest.mark.parametrize("kind,level,method", [
        *[("circle", level, "iterative") for level in range(4, 9)],
        *[("icosphere", level, "iterative") for level in range(2, 5)],
        ("circle", 4, "dense"), ("icosphere", 2, "dense"),
        ("icosphere", 3, "dense"),
    ])
    def test_two_eigenpairs_give_the_sixfold_lambda1(self, kind, level,
                                                     method, monkeypatch):
        force_path(monkeypatch, method)
        prob = assemble(build_mesh(kind, level), P0)
        six = eigenvalues(prob)
        assert len(six) == 6
        lam = smallest_nonzero_eigenvalue(prob)
        assert abs(lam - six[1]) <= 1e-11 * six[1]

    # A bisection subset of the dense spectrum is accurate to eps * ||A||
    # only, so its lambda_1 moved by up to 9e-11 with the subset size.
    @pytest.mark.parametrize("kind,level", [("circle", 5), ("circle", 6),
                                            ("icosphere", 2)])
    def test_dense_lambda1_does_not_depend_on_count(self, kind, level,
                                                    monkeypatch):
        force_path(monkeypatch, "dense")
        prob = assemble(build_mesh(kind, level), P0)
        two = eigenvalues(prob, count=2)
        six = eigenvalues(prob, count=6)
        assert (len(two), len(six)) == (2, 6)
        assert two[1] == six[1]

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

    # 9, 14 and 14 steps are needed; a damaged V-cycle needs many more.
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

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "PCG_MAX_ITER", 2)
        with pytest.raises(SolverNoConvergence, match="PCG"):
            harmonic_extension_2d(*suite_dirichlet(*SUITE_DIRICHLET[1]))

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
        order = _nested_dissection(mesh)
        assert np.array_equal(np.sort(order), np.arange(len(mesh.vertices)))

    def test_fill_within_ten_percent_of_minimum_degree(self):
        mesh = build_mesh("icosphere", 4)
        prob = assemble(mesh, P0)
        mat = prob.stiffness + 0.05 * prob.mass
        order = _nested_dissection(mesh)
        options = {"diag_pivot_thresh": 0.0,
                   "options": {"SymmetricMode": True}}
        nd = scipy.sparse.linalg.splu(mat[order][:, order].tocsc(),
                                      permc_spec="NATURAL", **options)
        mmd = scipy.sparse.linalg.splu(mat.tocsc(),
                                       permc_spec="MMD_AT_PLUS_A", **options)
        assert lu_fill(nd) <= 1.1 * lu_fill(mmd)
