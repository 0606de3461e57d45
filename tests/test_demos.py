"""Every demo script runs to the end without a word on stderr."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path),
               MPLBACKEND="Agg")
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
