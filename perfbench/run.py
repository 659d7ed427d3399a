"""ncrat benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through ncrat's public API, imported
from the checkout's own ``src/``, and checks every item against an answer
fixed by the item's construction.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the details the metrics depend on
(input size, passes, tail rank, error rate, result digest).

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json from
an untraced run.  The workload's pass (its seeded items) runs again and
again, each time in a fresh process so that no cache carries over, until
at least three passes have run and the next would end more than half a
pass after S seconds.  An item's time is its mean over the passes, which
follows a machine whose speed drifts during the run more smoothly than a
median of a few samples; ``latency_p50_ms`` and ``latency_tail_ms`` are
the median and the nearest-rank p90 (rounded down) of those times, and
``items_per_s`` is the items of the pass over their sum.  ``setup_s`` is the
median over the passes of the time from spawning the process until it has
imported ncrat and generated the inputs; ``peak_rss_mb`` is the largest
``ru_maxrss`` among them.  Every pass must give the same results.

``--trace 1`` runs the pass once untraced in a fresh process, then once
here with span wrappers installed (spans.py), and reports the per-layer
metrics listed in BENCHMARK.json.  The spans are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 3


def load_ncrat():
    """Import ncrat from this checkout's src/ and nowhere else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")     # no numpy worker threads
    sys.path.insert(0, SRC)
    try:
        import ncrat
    except ImportError as exc:
        sys.exit(f"error: cannot import ncrat from {SRC}: {exc}")
    if not os.path.abspath(ncrat.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ncrat was imported from {ncrat.__file__}, not {SRC}")


def run_items(workload, items, tracer=None):
    """Run each item, timing it; a failing item is counted, not fatal."""
    latencies, results, failed = [], [], 0
    for item in items:
        start = time.perf_counter()
        span = tracer.begin("item") if tracer else None
        try:
            result = workload.run(item)
        except Exception as exc:
            failed += 1
            result = ("failed", type(exc).__name__, str(exc)[:200])
            print(f"item failed: {item!r:.200}: {exc!r:.200}", file=sys.stderr)
        finally:
            if tracer:
                tracer.end(span)
        latencies.append(time.perf_counter() - start)
        results.append(result)
    return latencies, results, failed


def digest(results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16]


def tail_rank(n: int) -> int:
    """1-based rank of the tail item among n: nearest-rank p90, rounded
    down, so a small pass's slowest item is never the tail."""
    return max(1, 9 * n // 10)


def pass_items(wl, args) -> list:
    return wl.items()[:args.items]


def child(args, *extra) -> subprocess.Popen:
    cmd = [sys.executable, os.path.abspath(__file__), *extra,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.items:
        cmd += ["--items", str(args.items)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def run_pass(args) -> dict:
    """One pass in a fresh process: its set-up time (spawn until the inputs
    are ready) and the child's per-item report."""
    start = time.perf_counter()
    with child(args, "--one-pass") as proc:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        out = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"error: pass failed with status {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setup
    return report


def metric_specs(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def emit(details, attempted, failed, values, kind, correct=True) -> None:
    metrics = {}
    for spec in metric_specs(kind):
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        else:
            print(f"warning: metric {spec['name']} not measured", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def untraced(args, workload) -> None:
    n = len(pass_items(workload(args.seed), args))
    start = time.perf_counter()
    passes = [run_pass(args)]
    while (len(passes) < MIN_PASSES or time.perf_counter() - start
           + passes[-1]["wall"] / 2 <= args.seconds):
        passes.append(run_pass(args))
    same = all(r["digest"] == passes[0]["digest"] for r in passes)
    if not same:
        print("error: a repeated pass gave different results", file=sys.stderr)
    attempted = n * len(passes)
    failed = sum(r["failed"] for r in passes)
    per_item = sorted(statistics.fmean(times)
                      for times in zip(*(r["latencies"] for r in passes)))
    k = tail_rank(n)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "items_per_s": n / sum(per_item),
        "latency_p50_ms": 1000 * statistics.median(per_item),
        "latency_tail_ms": 1000 * per_item[k - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    details = {"workload": args.workload, "seed": args.seed, "trace": 0,
               "input_size": workload.input_size, "items": n, "passes": len(passes),
               "tail_rank": k, "tail_percentile": round(100 * k / n, 2),
               "error_rate": failed / attempted, "digest": passes[0]["digest"],
               "setup_samples_s": [r["setup_s"] for r in passes],
               "pass_walls_s": [r["wall"] for r in passes]}
    emit(details, attempted, failed, values, "end_to_end", correct=same)


def traced(args, workload) -> None:
    from spans import Tracer

    wl = workload(args.seed)
    items = pass_items(wl, args)
    reference = run_pass(args)
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    _, results, failed = run_items(wl, items, tracer)
    wall = time.perf_counter() - start
    values = tracer.layer_metrics()
    values["trace.overhead"] = wall / reference["wall"] - 1
    same = digest(results) == reference["digest"]
    if not same:
        print("error: traced and untraced results differ", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{wl.name}-{args.seed}.jsonl")
    tracer.write(spans_file)
    details = {"workload": wl.name, "seed": args.seed, "trace": 1,
               "input_size": wl.input_size, "items": len(items),
               "digest": reference["digest"], "digest_traced": digest(results),
               "traced_wall_s": wall, "untraced_wall_s": reference["wall"],
               "spans": os.path.relpath(spans_file, ROOT),
               "self_time": tracer.placement(wall)}
    emit(details, len(items), failed, values, "per_layer", correct=same)


def one_pass(args, workload) -> None:
    """Child side of run_pass: report "ready" once the inputs exist, then
    run the pass and print one JSON line about it."""
    wl = workload(args.seed)
    items = pass_items(wl, args)
    print("ready", flush=True)
    start = time.perf_counter()
    latencies, results, failed = run_items(wl, items)
    wall = time.perf_counter() - start
    print(json.dumps({"latencies": latencies, "failed": failed, "wall": wall,
                      "digest": digest(results)}))


def main() -> None:
    load_ncrat()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="run only the first N items of the pass (reduced-size tests)")
    ap.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.one_pass:
        one_pass(args, workload)
    elif args.trace:
        traced(args, workload)
    else:
        untraced(args, workload)


if __name__ == "__main__":
    main()
