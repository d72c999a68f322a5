"""Scenario registry, suite orchestration, report format, and the CLI."""

import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import affconn
from affconn.cli import main
from affconn.errors import CheckNotRefinable, ConfigInvalid, UnsupportedKind
from affconn.scenarios import get_scenario, scenario_names
from affconn.suite import (applies, check_names, check_reilly,
                           convergence_rows, emit_convergence,
                           normalize_config, report_json, run_suite)
from oracles import weighted_scenarios

SMALL_CONFIG = {"scenarios": ["euclidean-flat", "disk-flat"],
                "checks": ["torsion", "statistical", "curvature-bound"]}


class TestRegistry:
    def test_required_scenarios_present(self):
        names = scenario_names()
        for required in ("euclidean-flat", "s2-classical", "s3-classical",
                         "s2-weighted-quadratic", "s2-substatic",
                         "s2-wylie-yeroshkin"):
            assert required in names
        assert len(names) >= 6

    def test_four_weighted_scenarios(self):
        assert len(weighted_scenarios()) >= 4

    def test_unknown_scenario(self):
        with pytest.raises(UnsupportedKind):
            get_scenario("s17-exotic")

    def test_weighted_scenarios_in_registry_order(self):
        assert [s.name for s in weighted_scenarios()] == [
            "s2-weighted-quadratic", "s2-substatic", "s2-wylie-yeroshkin",
            "s2-generic", "s2-hemisphere-weighted"]

    def test_applicable_pairs(self):
        pointwise = check_names()[:7]
        expected = {
            "disk-flat": ["reilly", "harmonic-extension"],
            "euclidean-flat": [],
            "s2-classical": ["d-minimal", "eigenvalue", "choi-wang",
                             "reilly", "proof-inequality"],
            "s2-generic": [],
            "s2-hemisphere-weighted": ["reilly"],
            "s2-substatic": ["d-minimal", "eigenvalue", "choi-wang"],
            "s2-weighted-quadratic": ["d-minimal", "eigenvalue", "choi-wang",
                                      "proof-inequality"],
            "s2-wylie-yeroshkin": [],
            "s3-classical": ["d-minimal", "eigenvalue", "choi-wang"],
        }
        table = {name: [c for c in check_names()
                        if applies(c, get_scenario(name))]
                 for name in scenario_names()}
        assert table == {name: pointwise + extra
                         for name, extra in expected.items()}
        assert sum(len(checks) for checks in table.values()) == 81

    @pytest.mark.parametrize("name, changes, message", [
        ("s2-classical", {"expected": {"k_best": 1.0}}, "a mesh needs"),
        ("s2-classical", {"hypersurface_factory": None}, "a mesh needs"),
        ("s2-hemisphere-weighted", {"reilly_fields": ()}, "a region needs"),
        ("s2-hemisphere-weighted", {"region_factory": None},
         "a region needs"),
    ], ids=["no-lambda1", "mesh-without-hypersurface",
            "region-without-fields", "fields-without-region"])
    def test_incomplete_scenario_is_refused(self, name, changes, message):
        # A check applies by the field it reads, so a field without the
        # rest of its data is refused rather than its records dropped.
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(get_scenario(name), **changes)

    def test_parameter_specializations(self):
        assert get_scenario("s2-substatic").params.alpha == 0.0
        assert get_scenario("s2-substatic").params.beta == 1.0
        wy = get_scenario("s2-wylie-yeroshkin")
        assert wy.params.alpha == pytest.approx(1.0)  # 1/(n-1) at n = 2
        assert wy.params.beta == 0.0


class TestConfig:
    def test_defaults_cover_everything(self):
        cfg = normalize_config({})
        assert cfg["scenarios"] == sorted(scenario_names())
        assert cfg["checks"] == check_names()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            normalize_config({"scenarios": [], "typo": 1})

    def test_unknown_scenario_rejected(self):
        # A bare string is not a list of names, and a repeat is an error.
        for scenarios in (["nope"], "disk-flat", [1],
                          ["disk-flat", "disk-flat"]):
            with pytest.raises(ConfigInvalid):
                normalize_config({"scenarios": scenarios})

    def test_unknown_check_rejected(self):
        for checks in (["nope"], 5, "torsion", ["torsion", "torsion"]):
            with pytest.raises(ConfigInvalid):
                normalize_config({"checks": checks})

    def test_bad_workers_rejected(self):
        for workers in (0, True):
            with pytest.raises(ConfigInvalid):
                normalize_config({"workers": workers})

    def test_scan_count_rejected(self):
        # The suite's sample counts are fixed, so the key means nothing.
        with pytest.raises(ConfigInvalid):
            normalize_config({"scan_count": 10})

    def test_round_trip_is_identity(self):
        cfg = normalize_config(SMALL_CONFIG)
        again = normalize_config(
            {k: cfg[k] for k in ("scenarios", "checks", "workers")})
        assert again == cfg


class TestSuite:
    def test_small_run_passes(self):
        report = run_suite(SMALL_CONFIG)
        assert report["passed"]
        keys = [(r["scenario"], r["check"]) for r in report["records"]]
        assert keys == sorted(keys, key=lambda k: (k[0], check_names().index(k[1])))

    def test_byte_identical_across_workers(self):
        one = report_json(run_suite(SMALL_CONFIG))
        four = report_json(run_suite({**SMALL_CONFIG, "workers": 4}))
        assert one == four

    def test_byte_identical_across_blas_threads(self):
        # The proof-chain energy sums ~50,000 products; a BLAS dot product
        # splits that sum by thread count, which moves its last bit.  The
        # eigensolve sums by einsum for the same reason: s3-classical is an
        # icosphere and s2-classical a circle, and their converge ladders
        # start at 12 and 16 vertices.  disk-flat's harmonic extension is
        # the flat disk's Dirichlet solve.
        script = ("import sys; from affconn.suite import emit_convergence, "
                  "report_json, run_suite; sys.stdout.write(report_json("
                  "run_suite({'scenarios': ['disk-flat', 's2-classical', "
                  "'s2-weighted-quadratic', 's3-classical'], 'checks': "
                  "['eigenvalue', 'choi-wang', 'harmonic-extension', "
                  "'proof-inequality']})))\n"
                  "for name in ('s2-classical', 's3-classical'):\n"
                  "    emit_convergence(name, 'eigenvalue', range(5), "
                  "sys.stdout)")
        src = os.path.dirname(os.path.dirname(affconn.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout)
        report, *ladders = outputs[0].split("level,h,value,error")
        records = json.loads(report)["records"]
        assert {(r["scenario"], r["check"]) for r in records} >= {
            (name, check) for name in ("s2-classical", "s3-classical")
            for check in ("eigenvalue", "choi-wang")}
        assert sum(r["check"] == "proof-inequality" for r in records) == 2
        assert ("disk-flat", "harmonic-extension") in {
            (r["scenario"], r["check"]) for r in records}
        assert [ladder.count("\n") for ladder in ladders] == [6, 6]
        assert outputs[0] == outputs[1]

    def test_records_carry_values_and_threshold(self):
        report = run_suite(SMALL_CONFIG)
        for record in report["records"]:
            assert "statement" in record
            assert "values" in record and "threshold" in record

    def test_report_is_valid_json(self):
        text = report_json(run_suite(SMALL_CONFIG))
        parsed = json.loads(text)
        assert parsed["stamp"]["precision"] == "float64"
        assert "workers" not in parsed["config"]


class TestConvergence:
    def test_eigenvalue_ladder(self):
        rows = convergence_rows("s2-classical", "eigenvalue", [3, 4, 5])
        errors = [r[3] for r in rows]
        assert errors == sorted(errors, reverse=True)
        assert rows[-1][4] == pytest.approx(2.0, abs=0.1)

    def test_reilly_ladder(self):
        rows = convergence_rows("s2-hemisphere-weighted", "reilly", [3, 4, 5])
        assert all(row[4] >= 2.0 for row in rows[1:])

    def test_reilly_ladder_orders_are_the_reports(self):
        rows = convergence_rows("s2-hemisphere-weighted", "reilly", [3, 4, 5])
        (record,) = run_suite({"scenarios": ["s2-hemisphere-weighted"],
                               "checks": ["reilly"]})["records"]
        assert [row[4] for row in rows[1:]] == \
            record["values"]["refinement_orders"]

    def test_reilly_orders_follow_the_scenario_passed_in(self):
        # The ladder of a scenario with changed parameters is its own, not
        # that of the registry scenario of the same name.
        scn = dataclasses.replace(get_scenario("s2-hemisphere-weighted"),
                                  params=affconn.WeightParams(0.9, -0.4))
        errors = [affconn.reilly_residual(scn.region(), scn.params,
                                          scn.reilly_fields[0][1], grid=grid,
                                          order=1).residual
                  for grid in (8, 16, 32)]
        expected = [float(np.log2(e0 / e1)) for e0, e1 in zip(errors,
                                                              errors[1:])]
        orders = check_reilly(scn)["values"]["refinement_orders"]
        assert orders == expected
        assert orders == pytest.approx([2.02051, 2.00510], abs=1e-5)

    def test_unrefinable_check(self):
        with pytest.raises(CheckNotRefinable):
            convergence_rows("s2-classical", "torsion", [1, 2])

    @pytest.mark.parametrize("name, check, field", [
        ("s2-hemisphere-weighted", "eigenvalue", "mesh_spec"),
        ("s2-substatic", "reilly", "region_factory"),
    ])
    def test_ladder_needs_the_field_its_check_reads(self, name, check,
                                                    field):
        # The ladder's gate is the only one in front of ``scn.mesh`` and
        # ``scn.region``, which do not test their field for None.
        with pytest.raises(CheckNotRefinable, match=f"has no {field}"):
            convergence_rows(name, check, [1, 2])

    def test_csv_is_rfc4180(self):
        buf = io.StringIO()
        emit_convergence("s2-classical", "eigenvalue", [3, 4], buf)
        text = buf.getvalue()
        lines = text.split("\r\n")
        assert lines[0] == "level,h,value,error,observed_order"
        assert len(lines) == 4 and lines[-1] == ""


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s2-classical" in out and "s3-classical" in out

    def test_list_filter_no_match(self, capsys):
        assert main(["list", "--filter", "zzz"]) == 0
        assert "s2" not in capsys.readouterr().out

    def test_verify_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        written = out.read_text()
        assert written == capsys.readouterr().out
        assert json.loads(written)["passed"]

    @pytest.mark.parametrize("flag, expected", [
        ([], 2), (["--workers", "1"], 1), (["--workers", "3"], 3),
    ], ids=["config", "flag-1", "flag-3"])
    def test_workers_flag_overrides_config(self, tmp_path, monkeypatch,
                                           capsys, flag, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "workers": 2}))
        seen = []

        def spy(config):
            seen.append(config["workers"])
            return {"passed": True}

        monkeypatch.setattr("affconn.cli.run_suite", spy)
        assert main([*flag, "verify", "--config", str(cfg)]) == 0
        assert seen == [expected]

    def test_verify_bad_workers_flag_exits_2(self, capsys):
        assert main(["--workers", "0", "verify"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["list"],
        ["converge", "--scenario", "s2-classical", "--check", "eigenvalue",
         "--levels", "3..4"],
    ], ids=["list", "converge"])
    def test_workers_with_another_command_exits_2(self, capsys, command):
        # Bad configuration is rejected, never ignored.
        for workers in ("0", "2"):
            assert main(["--workers", workers, *command]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--workers applies only to verify" in captured.err

    def test_verify_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mystery": true}')
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_verify_non_object_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        assert main(["--workers", "2", "verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    def test_verify_empty_selection_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # Valid names, but no check applies: the plane has no mesh.
        cfg.write_text(json.dumps({"scenarios": ["euclidean-flat"],
                                   "checks": ["eigenvalue"]}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    def test_converge(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["converge", "--scenario", "s2-classical",
                     "--check", "eigenvalue", "--levels", "3..4",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("level,h,value,error")

    def test_converge_bad_levels_exits_2(self, capsys):
        for levels in ("oops", "-1..0"):
            assert main(["converge", "--scenario", "s2-classical",
                         "--check", "eigenvalue", f"--levels={levels}"]) == 2

    def test_converge_unrefinable_exits_2(self, capsys):
        assert main(["converge", "--scenario", "s2-classical",
                     "--check", "torsion", "--levels", "1..2"]) == 2

    def test_seedless_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seedless", "list"])
        assert exc.value.code == 2
