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
from .operators import D_MINIMAL_TOL, d_minimal_residual, reilly_residual
from .scenarios import get_scenario, scenario_names
from .spectral import (assemble, choi_wang_certificate, harmonic_extension_2d,
                       proof_chain_inequality, smallest_nonzero_eigenvalue)

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


def _worst(values):
    """Largest of ``values``; a NaN among them is the result."""
    return float(np.max(list(values)))


def _gap(a, b):
    """Largest entrywise distance between two arrays."""
    return float(np.max(np.abs(a - b)))


def _record(statement, threshold, values, held, probes=True):
    """A report record: it passes when every value in ``held`` is at most
    ``threshold`` and the sensitivity ``probes`` hold.  A NaN compares
    false, so it never passes."""
    return {"values": values, "threshold": threshold,
            "passed": all(v <= threshold for v in held) and bool(probes),
            "statement": statement}


def check_torsion(scn):
    man = scn.manifold()
    gammas = [connection_coeffs(man, params, x)
              for x in halton_points(man, 20)
              for params in (LEVI_CIVITA, scn.params, scn.params.dual())]
    worst = _worst(_gap(g, g.swapaxes(1, 2)) for g in gammas)
    return _record("all three connection kinds are torsion-free", 1e-12,
                   {"max_asymmetry": worst}, [worst])


def check_duality(scn):
    man = scn.manifold()
    n = man.dim
    worst = _worst(duality_residual(man, scn.params, x,
                                    *[_poly_field(n, 3 * t + k)
                                      for k in range(3)])
                   for x in halton_points(man, POINT_COUNT) for t in range(3))
    x0 = halton_points(man, 1)[0]
    fields = [_poly_field(n, k) for k in range(3)]
    perturbed = duality_residual(man, scn.params, x0, *fields, perturb=0.01)
    return _record("dual-pairing identity of the conformal metric, "
                   "with a sensitivity probe", 1e-9,
                   {"max_residual": worst, "perturbed_residual": perturbed},
                   [worst], perturbed > 1e-4)


def check_statistical(scn):
    man = scn.manifold()
    sym, form = [], []
    for x in halton_points(man, 20):
        c = amari_chentsov(man, scn.params, x)
        form.append(_gap(c, amari_chentsov_closed_form(man, scn.params, x)))
        sym += [_gap(c, np.transpose(c, perm))
                for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0))]
    values = {"max_asymmetry": _worst(sym), "closed_form_gap": _worst(form)}
    return _record("cubic tensor is fully symmetric and matches its closed "
                   "form", 1e-10, values, values.values())


def check_equiaffine(scn):
    man = scn.manifold()
    xfield = _poly_field(man.dim, 1)
    worst = _worst(equiaffine_residual(man, scn.params, x, xfield)
                   for x in halton_points(man, 20))
    values, probes = {"max_residual": worst}, True
    if scn.weighted:
        x0 = halton_points(man, 1)[0]
        shifted = float(np.min([equiaffine_residual(man, scn.params, x0,
                                                    xfield, shift)
                                for shift in (0.1, -0.1)]))
        values["shifted_exponent_residual"] = shifted
        probes = shifted > 1e-5
    return _record("the weighted volume form is parallel for the connection",
                   1e-9, values, [worst], probes)


def check_ricci_symmetry(scn):
    report = curvature_bound_scan(scn.manifold(), scn.params)
    return _record("affine Ricci tensor is symmetric on the sampled set",
                   1e-9, {"max_asymmetry": report.asymmetry},
                   [report.asymmetry])


def check_curvature_oracles(scn):
    man = scn.manifold()

    def neg_u(z):
        return -man.weight(z)

    static_params = WeightParams(0.0, 1.0)
    wy_params = WeightParams(1.0 / (man.dim - 1), 0.0)
    static, wy = [], []
    for x in halton_points(man, 20):
        static.append(_gap(ricci_tensor(man, x, static_params),
                           static_ricci(man, x)))
        wy.append(_gap(ricci_tensor(man, x, wy_params),
                       weighted_ricci(man, neg_u, x)))
    values = {"static_gap": _worst(static), "one_weighted_gap": _worst(wy)}
    return _record("affine Ricci tensor matches the static and 1-weighted "
                   "Ricci oracles at their parameter values", 1e-9, values,
                   values.values())


def check_curvature_bound(scn):
    report = curvature_bound_scan(scn.manifold(), scn.params)
    values, held = {"k_best": report.k_best}, []
    expected = scn.expected.get("k_best")
    if expected is not None:
        values["expected"] = expected
        held = [abs(report.k_best - expected)]
    return _record("best certified constant in the lower Ricci bound on the "
                   "sampled set", 1e-9, values, held)


def check_d_minimal(scn):
    res = d_minimal_residual(scn.hypersurface(), scn.params)
    return _record("the attached hypersurface has vanishing affine mean "
                   "curvature", D_MINIMAL_TOL,
                   {"max_affine_mean_curvature": res}, [res])


def check_eigenvalue(scn):
    lam = smallest_nonzero_eigenvalue(assemble(scn.mesh(), scn.params))
    expected = scn.expected["lambda1"]
    rel = abs(lam - expected) / abs(expected)
    return _record("first nonzero eigenvalue of the induced weighted "
                   "Laplacian matches the reference value",
                   scn.expected["lambda1_rtol"],
                   {"lambda1": lam, "expected": expected,
                    "relative_error": rel}, [rel])


def check_choi_wang(scn):
    cert = choi_wang_certificate(scn.manifold(), scn.params,
                                 scn.hypersurface(), scn.mesh())
    # The certificate's rule, margin >= -tolerance.
    return _record("first eigenvalue dominates half the certified curvature "
                   "constant", cert.tolerance,
                   {"k_best": cert.k_best, "lambda1": cert.lambda1,
                    "margin": cert.margin,
                    "d_minimal_residual": cert.d_minimal_residual},
                   [-cert.margin])


def check_reilly(scn):
    region = scn.region()
    values = {f"residual_{label}": reilly_residual(region, scn.params,
                                                   phi).residual
              for label, phi in scn.reilly_fields}
    held = list(values.values())
    statement = ("weighted integral identity holds at reference quadrature "
                 "resolution")
    probes = True
    if scn.weighted:
        orders = [row[4] for row in convergence_rows(scn.name, "reilly",
                                                     (3, 4, 5))[1:]]
        values["refinement_orders"] = orders
        probes = all(o >= 2.0 for o in orders)
        statement += ", with second-order quadrature refinement"
    return _record(statement, 1e-5 if scn.weighted else 1e-8, values, held,
                   probes)


def check_harmonic_extension(scn):
    mesh = scn.extension_mesh()
    phi, _ = harmonic_extension_2d(mesh, scn.params,
                                   mesh.vertices[mesh.boundary_loop, 0])
    err = _gap(phi, mesh.vertices[:, 0])
    return _record("discrete harmonic extension reproduces a linear harmonic "
                   "function on the flat disk", 1e-6, {"max_error": err},
                   [err])


def check_proof_inequality(scn):
    mesh = scn.proof_mesh()
    loop = mesh.boundary_loop
    angle = np.arctan2(mesh.vertices[loop, 1], mesh.vertices[loop, 0])
    report = curvature_bound_scan(scn.manifold(), scn.params)
    if report.k_best <= 0.0:
        raise NonpositiveK(f"scan found K = {report.k_best}")
    result = proof_chain_inequality(mesh, scn.params, np.sin(angle),
                                    report.k_best)
    return _record("the intermediate boundary-term inequality of the "
                   "eigenvalue bound is nonpositive",
                   1e-4 * result["positive_scale"],
                   {"quantity": result["quantity"], "energy": result["energy"],
                    "pairing": result["pairing"],
                    "positive_scale": result["positive_scale"],
                    "k_best": report.k_best}, [result["quantity"]])


# --- registry --------------------------------------------------------------


# Each check with the Scenario field it reads (None: the manifold alone);
# Scenario refuses a field without the data its checks also read.
CHECKS = {
    "torsion": (check_torsion, None),
    "duality": (check_duality, None),
    "statistical": (check_statistical, None),
    "equiaffine": (check_equiaffine, None),
    "ricci-symmetry": (check_ricci_symmetry, None),
    "curvature-oracles": (check_curvature_oracles, None),
    "curvature-bound": (check_curvature_bound, None),
    "d-minimal": (check_d_minimal, "hypersurface_factory"),
    "eigenvalue": (check_eigenvalue, "mesh_spec"),
    "choi-wang": (check_choi_wang, "mesh_spec"),
    "reilly": (check_reilly, "region_factory"),
    "harmonic-extension": (check_harmonic_extension, "extension_mesh"),
    "proof-inequality": (check_proof_inequality, "proof_mesh"),
}


def check_names():
    return list(CHECKS)


def applies(check_id, scn):
    """True when ``scn`` carries the field that check ``check_id`` reads."""
    field = CHECKS[check_id][1]
    return field is None or getattr(scn, field) is not None


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
            "checks": [c for c in CHECKS if c in checks],
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
             if applies(c, get_scenario(s))]
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


def _strict(obj):
    """``obj`` with each non-finite float replaced by a string."""
    if isinstance(obj, float) and not np.isfinite(obj):
        return json.dumps(obj)  # "NaN", "Infinity" or "-Infinity"
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def report_json(report):
    """Canonical strict JSON; identical reports give identical bytes."""
    return json.dumps(_strict(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


# --- convergence tables ----------------------------------------------------


def convergence_rows(scenario_name, check_id, levels):
    """Refinement study rows (level, h, value, error, observed order); the
    order between two rows is log2(e0/e1) / log2(h0/h1)."""
    scn = get_scenario(scenario_name)
    if check_id not in ("eigenvalue", "reilly"):
        raise CheckNotRefinable(f"check {check_id!r} has no refinement ladder")
    if not applies(check_id, scn):
        raise CheckNotRefinable(f"scenario {scenario_name!r} has no "
                                f"{CHECKS[check_id][1]}")
    rows = []
    if check_id == "eigenvalue":
        expected = scn.expected["lambda1"]
        for level in levels:
            mesh = scn.mesh(level)
            lam = smallest_nonzero_eigenvalue(assemble(mesh, scn.params))
            h = 1.0 / len(mesh.vertices) ** (1.0 / mesh.cell_dim)
            rows.append([level, h, lam, abs(lam - expected)])
    else:
        region = scn.region()
        phi = scn.reilly_fields[0][1]
        for level in levels:
            grid = 2 ** level
            res = reilly_residual(region, scn.params, phi, grid=grid, order=1)
            rows.append([level, 1.0 / grid, res.lhs, res.residual])
    # A zero error gives an infinite or NaN order, not a gap in the column.
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = [float(np.log2(np.divide(e0, e1)) / np.log2(h0 / h1))
                  for (_, h0, _, e0), (_, h1, _, e1) in zip(rows, rows[1:])]
    return [row + [order] for row, order in zip(rows, [""] + orders)]


def emit_convergence(scenario_name, check_id, levels, stream):
    """Write the refinement study as an RFC-4180 CSV table."""
    rows = convergence_rows(scenario_name, check_id, levels)
    writer = csv.writer(stream, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(["level", "h", "value", "error", "observed_order"])
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return rows
