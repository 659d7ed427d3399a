"""The example scripts run to completion (exit status 0), and so does
`python -m ncrat`; CLI runs that never fill a matrix leave numpy unloaded."""

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


NUMPY_PROBE = """
import contextlib, io, random, sys
import ncrat, ncrat.cli
from ncrat import cli
from ncrat.field import MERSENNE61, QQ, DenseMatrix, PrimeField, invert, rank_of
for argv in (["rit", "x1 - x1"], ["ncrank", "--file", "data/higman.skm", "--json"],
             ["compile", "inv(x1)*x2"],
             ["bootstrap", "--rational", "x1*x2 - x2*x1", "--dims", "1,2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("numpy" in sys.modules, "ncrat._modnum" in sys.modules)
print(*sorted(m for m in sys.modules if m.split(".")[0] == "ncrat"))
assert not hasattr(ncrat, "bivariate_encode") and not hasattr(ncrat, "blowup_shift")
# the identity plus all ones over Q, and a random matrix mod 2^61 + 15
dense = (DenseMatrix.from_rows(QQ, [[1 + (i == j) for j in range(64)] for i in range(64)]),
         DenseMatrix.random(PrimeField(2 ** 61 + 15), 64, 64, random.Random(1)))
for a in dense:
    assert invert(a).matmul(a) == DenseMatrix.identity(a.field, 64) and rank_of(a) == 64
print("numpy" in sys.modules, "ncrat._modnum" in sys.modules)
F = PrimeField(MERSENNE61)
invert(DenseMatrix.random(F, 64, 64, random.Random(1)))
print("numpy" in sys.modules, "ncrat._modnum" in sys.modules)
"""


def test_numpy_loads_only_for_a_matrix_that_fills_in():
    # four CLI runs rank, solve and compile only sparse matrices, or dense
    # ones over Q (bootstrap's series), and load no module of the package
    # that only the tests use; dense
    # 64 x 64 inverses and ranks over Q and mod 2^61 + 15 fill in, but the
    # dense kernel does not serve those fields; a dense 64 x 64 inverse mod
    # 2^61 - 1 loads it, numpy with it
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("False False\n"
                           "ncrat ncrat._sparse ncrat.circuit ncrat.cli ncrat.field "
                           "ncrat.pencil ncrat.rank ncrat.rit ncrat.series\n"
                           "False False\nTrue True\n")
