"""Every demo script runs to completion without a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conestab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    # fan_gallery.py writes its SVGs into the directory it is given
    argv = [str(tmp_path)] if script == "fan_gallery.py" else []
    env = dict(os.environ, PYTHONPATH=str(Path(conestab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
