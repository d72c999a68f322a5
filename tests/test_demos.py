"""The demos run against the public API, so an API change cannot break them
unnoticed."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("demo_connections.py", "duality defect over 30 sample points"),
    ("demo_curvature.py", "(0, 1) vs static Ricci oracle"),
    ("demo_reilly.py", "refinement ladder (midpoint quadrature)"),
    ("demo_spectrum.py", "s3-classical               2.000721  2.000000  "
                         "+1.000721  ok"),
], ids=["connections", "curvature", "reilly", "spectrum"])
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
