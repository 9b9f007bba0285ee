"""Every script under demos/ runs to completion against the package under test."""
from pathlib import Path

import pytest

from helpers import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_directory_is_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    res = run_python([str(demo)], tmp_path, env={"RANDUAL_THREADS": "1"})
    assert res.returncode == 0, res.stderr
