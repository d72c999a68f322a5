"""Acceptance gate: the nine headline criteria at their stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see
them) and asserts the same condition, so a red criterion fails the suite.
"""

import numpy as np
import pytest

from affconn import dual, spectral
from affconn.charts import WeightParams, halton_points
from affconn.connections import (amari_chentsov, amari_chentsov_closed_form,
                                 duality_residual, equiaffine_residual)
from affconn.curvature import ricci_tensor, static_ricci, weighted_ricci
from affconn.meshes import build_mesh, disk_mesh, hemisphere_mesh
from affconn.operators import reilly_residual
from affconn.scenarios import get_scenario
from affconn.spectral import (assemble, harmonic_extension_2d,
                              proof_chain_inequality,
                              smallest_nonzero_eigenvalue)
from affconn.suite import (_poly_field, check_choi_wang, convergence_rows,
                           report_json, run_suite)
from affconn.curvature import curvature_bound_scan
from oracles import force_path, weighted_scenarios


def _verdict(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_duality():
    ok = True
    for scn in weighted_scenarios()[:4]:
        man = scn.manifold()
        n = man.dim
        worst = 0.0
        for x in halton_points(man, 50):
            for t in range(3):
                fields = [_poly_field(n, 3 * t + k) for k in range(3)]
                worst = max(worst, duality_residual(man, scn.params,
                                                    list(x), *fields))
        x0 = list(halton_points(man, 1)[0])
        fields = [_poly_field(n, k) for k in range(3)]
        perturbed = duality_residual(man, scn.params, x0, *fields, perturb=0.01)
        ok = ok and worst <= 1e-9 and perturbed > 1e-4
    _verdict(1, "duality", ok)


def test_criterion_2_statistical_structure():
    ok = True
    for scn in weighted_scenarios():
        man = scn.manifold()
        for x in halton_points(man, 20):
            c = amari_chentsov(man, scn.params, list(x))
            cf = amari_chentsov_closed_form(man, scn.params, list(x))
            ok = ok and np.max(np.abs(c - cf)) <= 1e-10
            for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
                ok = ok and np.max(np.abs(c - np.transpose(c, perm))) <= 1e-10
    man = weighted_scenarios()[0].manifold()
    cancel = amari_chentsov(man, WeightParams(0.5, -0.5), [1.0, 0.3])
    ok = ok and np.max(np.abs(cancel)) <= 1e-12
    _verdict(2, "statistical structure", ok)


def test_criterion_3_equiaffinity():
    scn = get_scenario("s2-generic")
    man = scn.manifold()
    xfield = _poly_field(man.dim, 1)
    worst = max(equiaffine_residual(man, scn.params, list(x), xfield)
                for x in halton_points(man, 20))
    x0 = list(halton_points(man, 1)[0])
    plus = equiaffine_residual(man, scn.params, x0, xfield, tau_shift=0.1)
    minus = equiaffine_residual(man, scn.params, x0, xfield, tau_shift=-0.1)
    _verdict(3, "equiaffinity", worst <= 1e-9 and min(plus, minus) > 1e-5)


def test_criterion_4_curvature_oracles():
    ok = True
    for scn in weighted_scenarios():
        man = scn.manifold()
        params_static = WeightParams(0.0, 1.0)
        params_wy = WeightParams(1.0 / (man.dim - 1), 0.0)

        def neg_u(z):
            return -man.weight(z)

        for x in halton_points(man, 20):
            gap_s = np.max(np.abs(
                ricci_tensor(man, x, params_static)
                - static_ricci(man, x)))
            gap_w = np.max(np.abs(
                ricci_tensor(man, x, params_wy)
                - weighted_ricci(man, neg_u, x)))
            ok = ok and gap_s <= 1e-9 and gap_w <= 1e-9
    _verdict(4, "curvature oracles", ok)


def test_criterion_5_integral_identity():
    hemi = get_scenario("s2-hemisphere-weighted")
    region = hemi.region()
    label, phi = hemi.reilly_fields[0]
    res = reilly_residual(region, hemi.params, phi)
    orders = [row[4] for row in convergence_rows(hemi.name, "reilly",
                                                 (3, 4, 5))[1:]]
    disk = get_scenario("disk-flat")
    flat_worst = max(
        reilly_residual(disk.region(), disk.params, f).residual
        for _, f in disk.reilly_fields)
    _verdict(5, "integral identity",
             res.residual <= 1e-5 and min(orders) >= 2.0
             and flat_worst <= 1e-8)


def test_criterion_6_eigenvalue_bound():
    ok = True
    for name in ("s2-classical", "s3-classical", "s2-weighted-quadratic"):
        record = check_choi_wang(get_scenario(name))
        values = record["values"]
        ok = ok and record["passed"]
        ok = ok and values["d_minimal_residual"] <= 1e-8
        ok = ok and values["margin"] >= -1e-3 * values["k_best"]
        if name == "s2-classical":
            ok = ok and abs(values["k_best"] - 1.0) <= 1e-9
            ok = ok and abs(values["lambda1"] - 1.0) <= 1e-4
        if name == "s3-classical":
            ok = ok and abs(values["k_best"] - 2.0) <= 1e-9
            ok = ok and abs(values["lambda1"] - 2.0) / 2.0 <= 5e-3
    _verdict(6, "eigenvalue lower bound", ok)


def test_criterion_7_proof_chain():
    mesh = disk_mesh(5)
    psi = mesh.vertices[mesh.boundary_loop, 0]
    phi, _ = harmonic_extension_2d(mesh, WeightParams(0.0, 0.0), psi)
    ok = np.max(np.abs(phi - mesh.vertices[:, 0])) <= 1e-6
    cases = [("s2-classical", lambda v: 0.0),
             ("s2-weighted-quadratic", lambda v: 0.1 * v[2] ** 2)]
    for name, u_fn in cases:
        scn = get_scenario(name)
        hm = hemisphere_mesh(5).with_weight(u_fn)
        loop = hm.boundary_loop
        angle = np.arctan2(hm.vertices[loop, 1], hm.vertices[loop, 0])
        k = curvature_bound_scan(scn.manifold(), scn.params).k_best
        result = proof_chain_inequality(hm, scn.params, np.sin(angle), k)
        ok = ok and result["quantity"] <= 1e-4 * result["positive_scale"]
    _verdict(7, "proof-chain inequality", ok)


def test_criterion_8_spectral_solver(monkeypatch):
    p0 = WeightParams(0.0, 0.0)
    lam_circle = smallest_nonzero_eigenvalue(
        assemble(build_mesh("circle", 6), p0))
    lam_sphere = smallest_nonzero_eigenvalue(
        assemble(build_mesh("icosphere", 5), p0))
    prob = assemble(build_mesh("icosphere", 3), p0)
    # Read before force_path moves the cutoff: the solve below takes the
    # multigrid LOBPCG path.
    took_lobpcg = prob.size >= spectral.DENSE_CUTOFF
    iterative = smallest_nonzero_eigenvalue(prob)
    force_path(monkeypatch, "dense")
    dense = smallest_nonzero_eigenvalue(prob)
    _verdict(8, "spectral solver",
             abs(lam_circle - 1.0) <= 1e-4
             and abs(lam_sphere - 2.0) / 2.0 <= 5e-3
             and took_lobpcg
             and abs(dense - iterative) / dense <= 1e-8)


def test_criterion_9_determinism():
    first = report_json(run_suite({"workers": 1}))
    second = report_json(run_suite({"workers": 1}))
    parallel = report_json(run_suite({"workers": 3}))
    _verdict(9, "determinism", first == second == parallel)
