"""The demos run against the public API, so an API change cannot break them
unnoticed."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("demo_connections.py", "duality defect over 30 sample points"),
    ("demo_curvature.py", "(0, 1) vs static Ricci oracle"),
], ids=["connections", "curvature"])
def test_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
