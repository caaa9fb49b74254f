"""Every demo script runs to the end in process."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().strip()
