"""The example scripts run to completion (exit status 0), and so does
`python -m ncrat`."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["scripts/rank_demo.py"],
    ["scripts/hitting_set_demo.py", "--size", "6", "--dim", "2"],
    ["scripts/bootstrap_experiment.py", "--dims", "1,2", "--trials", "4"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "ncrat", "rit", "x1 - x1"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("command rit\nverdict ZERO\n")
