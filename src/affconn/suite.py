"""Verification suite orchestration and report emission.

A report is a deterministic JSON document: records are keyed by
(scenario, check), ordered by scenario name then check id, and carry the
computed values, the threshold used, and the verified statement.  Checks
that error are recorded with the exception and the suite continues.
"""

import csv
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .charts import WeightParams, halton_points
from .connections import (LEVI_CIVITA, amari_chentsov,
                          amari_chentsov_closed_form, connection_coeffs,
                          duality_residual, equiaffine_residual)
from .curvature import (curvature_bound_scan, ricci_tensor, static_ricci,
                        weighted_ricci)
from .errors import (CheckNotRefinable, ConfigInvalid, GeometryError,
                     NonpositiveK)
from .operators import d_minimal_residual, reilly_refinement, reilly_residual
from .scenarios import get_scenario, scenario_names
from .spectral import (assemble, choi_wang_certificate, harmonic_extension_2d,
                       proof_chain_inequality, smallest_nonzero_eigenvalue)

SCAN_COUNT = 100
POINT_COUNT = 50


def _poly_field(n, seed):
    """Deterministic polynomial vector field; seed picks the coefficients."""
    coeffs = [[0.3 + 0.1 * ((seed * 7 + i * 3 + j) % 5) for j in range(n + 1)]
              for i in range(n)]

    def field(z):
        out = []
        for i in range(n):
            c = coeffs[i]
            acc = c[0]
            for j in range(n):
                acc = acc + c[j + 1] * z[j] + 0.05 * z[i] * z[j]
            out.append(acc)
        return out
    return field


# --- individual checks -----------------------------------------------------


def check_torsion(scn):
    man = scn.manifold()
    worst = 0.0
    for x in halton_points(man, 20):
        for params in (LEVI_CIVITA, scn.params, scn.params.dual()):
            gamma = connection_coeffs(man, params, x).entries
            worst = max(worst,
                        float(np.max(np.abs(gamma - gamma.swapaxes(1, 2)))))
    return {"values": {"max_asymmetry": worst}, "threshold": 1e-12,
            "passed": worst <= 1e-12,
            "statement": "all three connection kinds are torsion-free"}


def check_duality(scn):
    man = scn.manifold()
    n = man.dim
    worst = 0.0
    for x in halton_points(man, POINT_COUNT):
        for t in range(3):
            fields = [_poly_field(n, 3 * t + k) for k in range(3)]
            worst = max(worst, duality_residual(man, scn.params, list(x),
                                                *fields))
    x0 = halton_points(man, 1)[0]
    fields = [_poly_field(n, k) for k in range(3)]
    perturbed = duality_residual(man, scn.params, list(x0), *fields,
                                 perturb=0.01)
    return {"values": {"max_residual": worst, "perturbed_residual": perturbed},
            "threshold": 1e-9,
            "passed": worst <= 1e-9 and perturbed > 1e-4,
            "statement": "dual-pairing identity of the conformal metric, "
                         "with a sensitivity probe"}


def check_statistical(scn):
    man = scn.manifold()
    worst_sym = 0.0
    worst_form = 0.0
    for x in halton_points(man, 20):
        c = amari_chentsov(man, scn.params, list(x)).entries
        cf = amari_chentsov_closed_form(man, scn.params, list(x)).entries
        worst_form = max(worst_form, float(np.max(np.abs(c - cf))))
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            worst_sym = max(worst_sym,
                            float(np.max(np.abs(c - np.transpose(c, perm)))))
    return {"values": {"max_asymmetry": worst_sym,
                       "closed_form_gap": worst_form},
            "threshold": 1e-10,
            "passed": worst_sym <= 1e-10 and worst_form <= 1e-10,
            "statement": "cubic tensor is fully symmetric and matches its "
                         "closed form"}


def check_equiaffine(scn):
    man = scn.manifold()
    n = man.dim
    xfield = _poly_field(n, 1)
    worst = 0.0
    for x in halton_points(man, 20):
        worst = max(worst, equiaffine_residual(man, scn.params, list(x), xfield))
    record = {"values": {"max_residual": worst}, "threshold": 1e-9,
              "passed": worst <= 1e-9,
              "statement": "the weighted volume form is parallel for the "
                           "connection"}
    if scn.weighted:
        x0 = list(halton_points(man, 1)[0])
        shifted = min(equiaffine_residual(man, scn.params, x0, xfield, 0.1),
                      equiaffine_residual(man, scn.params, x0, xfield, -0.1))
        record["values"]["shifted_exponent_residual"] = shifted
        record["passed"] = record["passed"] and shifted > 1e-5
    return record


def check_ricci_symmetry(scn):
    man = scn.manifold()
    report = curvature_bound_scan(man, scn.params, SCAN_COUNT)
    return {"values": {"max_asymmetry": report.asymmetry}, "threshold": 1e-9,
            "passed": report.asymmetry <= 1e-9,
            "statement": "affine Ricci tensor is symmetric on the sampled set"}


def check_curvature_oracles(scn):
    man = scn.manifold()

    def neg_u(z):
        return -man.weight(z)

    static_params = WeightParams(0.0, 1.0)
    wy_params = WeightParams(1.0 / (man.dim - 1), 0.0)
    worst_static = 0.0
    worst_wy = 0.0
    for x in halton_points(man, 20):
        ric_static = ricci_tensor(man, x, static_params).entries
        oracle_static = static_ricci(man, x).entries
        worst_static = max(worst_static,
                           float(np.max(np.abs(ric_static - oracle_static))))
        ric_wy = ricci_tensor(man, x, wy_params).entries
        oracle_wy = weighted_ricci(man, neg_u, 1.0, x).entries
        worst_wy = max(worst_wy, float(np.max(np.abs(ric_wy - oracle_wy))))
    return {"values": {"static_gap": worst_static, "one_weighted_gap": worst_wy},
            "threshold": 1e-9,
            "passed": worst_static <= 1e-9 and worst_wy <= 1e-9,
            "statement": "affine Ricci tensor matches the static and "
                         "1-weighted Ricci oracles at their parameter values"}


def check_curvature_bound(scn):
    man = scn.manifold()
    report = curvature_bound_scan(man, scn.params, SCAN_COUNT)
    record = {"values": {"k_best": report.k_best},
              "threshold": 1e-9, "passed": True,
              "statement": "best certified constant in the lower Ricci bound "
                           "on the sampled set"}
    expected = scn.expected.get("k_best")
    if expected is not None:
        record["values"]["expected"] = expected
        record["passed"] = abs(report.k_best - expected) <= 1e-9
    return record


def check_d_minimal(scn):
    hyp = scn.hypersurface()
    res = d_minimal_residual(hyp, scn.params)
    return {"values": {"max_affine_mean_curvature": res}, "threshold": 1e-8,
            "passed": res <= 1e-8,
            "statement": "the attached hypersurface has vanishing affine "
                         "mean curvature"}


def check_eigenvalue(scn):
    mesh = scn.mesh()
    lam = smallest_nonzero_eigenvalue(assemble(mesh, scn.params))
    expected = scn.expected["lambda1"]
    rtol = scn.expected["lambda1_rtol"]
    rel = abs(lam - expected) / abs(expected)
    return {"values": {"lambda1": lam, "expected": expected,
                       "relative_error": rel},
            "threshold": rtol, "passed": rel <= rtol,
            "statement": "first nonzero eigenvalue of the induced weighted "
                         "Laplacian matches the reference value"}


def check_choi_wang(scn):
    man = scn.manifold()
    cert = choi_wang_certificate(man, scn.params, scn.hypersurface(),
                                 scn.mesh(), scan_count=SCAN_COUNT)
    return {"values": {"k_best": cert.k_best, "lambda1": cert.lambda1,
                       "margin": cert.margin,
                       "d_minimal_residual": cert.d_minimal_residual},
            "threshold": cert.tolerance, "passed": cert.passed,
            "statement": "first eigenvalue dominates half the certified "
                         "curvature constant"}


def check_reilly(scn):
    region = scn.region()
    threshold = 1e-5 if scn.weighted else 1e-8
    worst = 0.0
    values = {}
    for label, phi in scn.reilly_fields:
        res = reilly_residual(region, scn.params, phi)
        values[f"residual_{label}"] = res.residual
        worst = max(worst, res.residual)
    record = {"values": values, "threshold": threshold,
              "passed": worst <= threshold,
              "statement": "weighted integral identity holds at reference "
                           "quadrature resolution"}
    if scn.weighted:
        label, phi = scn.reilly_fields[0]
        residuals, orders = reilly_refinement(region, scn.params, phi,
                                              grids=(8, 16, 32), order=1)
        record["values"]["refinement_orders"] = [float(o) for o in orders]
        record["passed"] = record["passed"] and min(orders) >= 2.0
        record["statement"] += ", with second-order quadrature refinement"
    return record


def check_harmonic_extension(scn):
    mesh = scn.extension_mesh()
    psi = mesh.vertices[mesh.boundary_loop, 0]
    phi, _ = harmonic_extension_2d(mesh, scn.params, psi)
    err = float(np.max(np.abs(phi - mesh.vertices[:, 0])))
    return {"values": {"max_error": err}, "threshold": 1e-6,
            "passed": err <= 1e-6,
            "statement": "discrete harmonic extension reproduces a linear "
                         "harmonic function on the flat disk"}


def check_proof_inequality(scn):
    mesh = scn.proof_mesh()
    loop = mesh.boundary_loop
    angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
    report = curvature_bound_scan(scn.manifold(), scn.params, SCAN_COUNT)
    if report.k_best <= 0.0:
        raise NonpositiveK(f"scan found K = {report.k_best}")
    result = proof_chain_inequality(mesh, scn.params, np.sin(angle),
                                    report.k_best)
    threshold = 1e-4 * result["positive_scale"]
    return {"values": {"quantity": result["quantity"],
                       "energy": result["energy"],
                       "pairing": result["pairing"],
                       "positive_scale": result["positive_scale"],
                       "k_best": report.k_best},
            "threshold": threshold,
            "passed": result["quantity"] <= threshold,
            "statement": "the intermediate boundary-term inequality of the "
                         "eigenvalue bound is nonpositive"}


# --- registry --------------------------------------------------------------


def _has_hypersurface(scn):
    return scn.hypersurface_factory is not None


def _has_mesh_expected(scn):
    return scn.mesh_spec is not None and "lambda1" in scn.expected


def _has_certificate(scn):
    return (_has_hypersurface(scn) and scn.mesh_spec is not None
            and scn.expected.get("k_best", 1.0) > 0.0)


def _has_region(scn):
    return scn.region_factory is not None and scn.reilly_fields


CHECKS = {
    "torsion": (check_torsion, lambda s: True),
    "duality": (check_duality, lambda s: True),
    "statistical": (check_statistical, lambda s: True),
    "equiaffine": (check_equiaffine, lambda s: True),
    "ricci-symmetry": (check_ricci_symmetry, lambda s: True),
    "curvature-oracles": (check_curvature_oracles, lambda s: True),
    "curvature-bound": (check_curvature_bound, lambda s: True),
    "d-minimal": (check_d_minimal, _has_hypersurface),
    "eigenvalue": (check_eigenvalue, _has_mesh_expected),
    "choi-wang": (check_choi_wang, _has_certificate),
    "reilly": (check_reilly, _has_region),
    "harmonic-extension": (check_harmonic_extension,
                           lambda s: s.extension_mesh is not None),
    "proof-inequality": (check_proof_inequality,
                         lambda s: s.proof_mesh is not None),
}

CHECK_ORDER = list(CHECKS)


def check_names():
    return list(CHECK_ORDER)


# --- configuration and suite run -------------------------------------------

_CONFIG_KEYS = {"scenarios", "checks", "workers"}


def _config_names(config, key, known):
    """The list of names under ``key``; each known, none repeated."""
    names = config.get(key, known)
    if not isinstance(names, list):
        raise ConfigInvalid(f"{key} must be a list of names")
    for name in names:
        if name not in known:
            raise ConfigInvalid(f"unknown {key[:-1]} {name!r}")
    if len(set(names)) < len(names):
        raise ConfigInvalid(f"duplicate names in {key}")
    return names


def normalize_config(config):
    """Validate a config mapping and fill defaults; unknown keys are errors."""
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    scenarios = _config_names(config, "scenarios", scenario_names())
    checks = _config_names(config, "checks", check_names())
    workers = config.get("workers", 1)
    # bool is an int subclass, so `true` would pass an isinstance check.
    if type(workers) is not int or workers < 1:
        raise ConfigInvalid("workers must be a positive integer")
    return {"scenarios": sorted(scenarios),
            "checks": [c for c in CHECK_ORDER if c in checks],
            "workers": workers}


def _run_one(scenario_name, check_id):
    record = {"scenario": scenario_name, "check": check_id}
    try:
        record.update(CHECKS[check_id][0](get_scenario(scenario_name)))
    except GeometryError as err:
        record.update({"error": f"{type(err).__name__}: {err}",
                       "passed": False})
    return record


def run_suite(config=None):
    """Execute the configured checks and return the report dictionary."""
    cfg = normalize_config({} if config is None else config)
    tasks = [(s, c) for s in cfg["scenarios"] for c in cfg["checks"]
             if CHECKS[c][1](get_scenario(s))]
    if not tasks:
        raise ConfigInvalid("no selected check applies to a selected scenario")
    # Tasks are built in report order, and map keeps that order.
    with ThreadPoolExecutor(max_workers=cfg["workers"]) as pool:
        records = list(pool.map(lambda t: _run_one(*t), tasks))
    # The stamp excludes the worker count so reports stay byte-identical
    # across different degrees of parallelism.
    return {"stamp": {"version": __version__, "precision": "float64"},
            "config": {"scenarios": cfg["scenarios"], "checks": cfg["checks"]},
            "records": records,
            "passed": all(r["passed"] for r in records)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def report_json(report):
    """Canonical serialization; identical reports give identical bytes."""
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


# --- convergence tables ----------------------------------------------------


def convergence_rows(scenario_name, check_id, levels):
    """Refinement study rows (level, h, value, error, observed order)."""
    scn = get_scenario(scenario_name)
    rows = []
    if check_id == "eigenvalue":
        if not _has_mesh_expected(scn):
            raise CheckNotRefinable(
                f"scenario {scenario_name!r} has no eigenvalue reference")
        expected = scn.expected["lambda1"]
        for level in levels:
            mesh = scn.mesh(level)
            lam = smallest_nonzero_eigenvalue(assemble(mesh, scn.params))
            h = 1.0 / len(mesh.vertices) ** (1.0 / mesh.cell_dim)
            rows.append([level, h, lam, abs(lam - expected)])
    elif check_id == "reilly":
        if not _has_region(scn):
            raise CheckNotRefinable(f"scenario {scenario_name!r} has no region")
        region = scn.region()
        label, phi = scn.reilly_fields[0]
        for level in levels:
            grid = 2 ** level
            res = reilly_residual(region, scn.params, phi, grid=grid,
                                  order=1, boundary_grid=grid)
            rows.append([level, 1.0 / grid, res.lhs, res.residual])
    else:
        raise CheckNotRefinable(f"check {check_id!r} has no refinement ladder")
    out = []
    for i, (level, h, val, err) in enumerate(rows):
        if i == 0 or err <= 0 or rows[i - 1][3] <= 0:
            order = ""
        else:
            order = float(np.log(rows[i - 1][3] / err)
                          / np.log(rows[i - 1][1] / h))
        out.append([level, h, val, err, order])
    return out


def emit_convergence(scenario_name, check_id, levels, stream):
    """Write the refinement study as an RFC-4180 CSV table."""
    rows = convergence_rows(scenario_name, check_id, levels)
    writer = csv.writer(stream, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(["level", "h", "value", "error", "observed_order"])
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return rows
