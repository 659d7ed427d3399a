"""Reduced-size checks of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs on the first few items of its pass, untraced and
traced, through the same entry point the benchmark command uses.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("rit-corpus", "rit-reduced", "ncrank-grid")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)
    return proc


def result(*args):
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_reports_every_layer(workload):
    details, res = result("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--items", "6")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 6
    assert details["digest_traced"] == details["digest"]
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_traced_counts_repeat_exactly():
    runs = [result("--workload", "rit-corpus", "--seed", "7", "--trace", "1",
                   "--items", "20")[1]["metrics"] for _ in range(2)]
    counts = [{k: m["value"] for k, m in r.items()
               if m["unit"] != "s" and k != "trace.overhead"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["rit.rit_test.calls"] == 20


@pytest.mark.parametrize("workload,items", [
    ("rit-corpus", "24"), ("rit-reduced", "24"), ("ncrank-grid", "6")])
def test_untraced_run_reports_every_end_to_end_metric(workload, items):
    details, res = result("--workload", workload, "--seed", "4", "--seconds", "1",
                          "--items", items)
    assert res["correct"] and res["failed"] == 0
    assert details["error_rate"] == 0 and details["items"] == int(items)
    assert details["passes"] >= 3 and res["attempted"] >= 2 * int(items)
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


SEEDED = """
import sys
sys.path[:0] = ["src", "perfbench"]
from workloads import WORKLOADS
for cls in WORKLOADS.values():
    a, b, c = (repr(cls(seed).items()) for seed in (5, 5, 6))
    assert a == b, cls.name
    assert (a == c) == (cls.name == "rit-reduced"), cls.name   # C09's fixed pass
"""


def test_inputs_are_a_function_of_the_seed():
    proc = subprocess.run([sys.executable, "-c", SEEDED], cwd=ROOT, text=True,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ncrank-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, text=True, capture_output=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


MISSING_NAME = """
import sys
sys.path[:0] = ["src", "perfbench"]
import spans
from ncrat import field
table = [row for row in spans.WRAPPED if row[0] == "field.sample_tuple"]
table.append(("field.gone", "ncrat.field", "no_such_function", None, ()))
tracer = spans.Tracer()
tracer.install(table)
field.sample_tuple(field.prime_field(), 2, 2, 0)
metrics = tracer.layer_metrics()
assert metrics["field.sample_tuple.calls"] == 1, metrics
assert not any(k.startswith("field.gone") for k in metrics), metrics
"""


def test_missing_wrapped_name_is_skipped_not_fatal():
    proc = subprocess.run([sys.executable, "-c", MISSING_NAME], cwd=ROOT, text=True,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "no_such_function not found" in proc.stderr
