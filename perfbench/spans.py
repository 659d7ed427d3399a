"""Span tracing for the benchmark's traced run.

The tracer wraps ncrat's public functions from outside the package, at the
names their callers look up: a module-level function is replaced in every
loaded ``ncrat`` module that binds it (``rit`` and ``rank`` import
``eval_circuit``, ``rank_of`` and friends by name), a method on its class.
Each call records a span (name, start, end, parent) in memory; a call
nested directly in a span of the same name (``rank_of`` reaching
``rank_mod``, ``compile_idrrsc`` recursing) is folded into the outer span.
A span's self time is its duration minus the time its child spans cover.
Nothing here is installed unless ``install`` is called, so the untraced run
executes ncrat unmodified.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter


def _dims(m):
    """(rows, cols) of a DenseMatrix or a numpy array."""
    return (m.rows, m.cols) if hasattr(m, "rows") else m.shape


def _count_rank(tr, args, result):
    rows, cols = _dims(args[0])
    tr.counts["field.rank.ops"] += rows * cols * result
    tr.counts["field.rank.n_max"] = max(tr.counts["field.rank.n_max"], rows, cols)


def _count_gate(tr, args, result):
    L = result.pencil
    with tr.bookkeeping():          # the nonzero scan is harness work
        nnz = sum(len(m.data) - m.data.count(0) for m in L.coeffs)
    tr.counts["pencil.gate.nnz"] += nnz
    tr.counts["pencil.gate.dense_slots"] += L.size * L.size * (L.nvars + 1)
    tr.counts["pencil.gate.size_max"] = max(tr.counts["pencil.gate.size_max"], L.size)


def _count_oracle(tr, args, result):
    oracle = args[0]
    tr.counts["pencil.oracle.core_size_sum"] += oracle.core.size
    tr.counts["pencil.oracle.base_sum"] += oracle.base


def _count_hit(tr, args, result):
    if result and tr.depth["rit.rit_test"]:
        tr.counts["rit.oracle_hits"] += 1


def _count_verdict(tr, args, result):
    tr.counts["rit.rit_test.trials"] += result.trials_run
    tr.counts["rit.witnesses"] += result.kind == "nonzero"


def _count_reduction(tr, args, result):
    tr.counts["rank.build_reduction_pencil.size"] += result.size


def _count_anomalies(tr, args, result):
    tr.counts["rank.ncrank_pencil.anomalies"] += result.anomalies


# (span name, or None for a wrapper that only counts; module; attribute;
#  hook run on each return; counters the hook fills)
WRAPPED = (
    ("circuit.parse_expr", "ncrat.circuit", "parse_expr", None, ()),
    ("circuit.to_idrrsc", "ncrat.circuit", "to_idrrsc", None, ()),
    ("circuit.variable_reduction", "ncrat.circuit", "variable_reduction", None, ()),
    ("circuit.transport_tuple", "ncrat.circuit", "transport_tuple", None, ()),
    ("circuit.eval_circuit", "ncrat.circuit", "eval_circuit", None, ()),
    ("pencil.compile_idrrsc", "ncrat.pencil", "compile_idrrsc", None, ()),
    ("pencil.realize_inverse", "ncrat.pencil", "realize_inverse", _count_gate,
     ("pencil.gate.nnz", "pencil.gate.dense_slots", "pencil.gate.size_max")),
    ("pencil.oracle", "ncrat.pencil", "PencilOracle.__init__", _count_oracle,
     ("pencil.oracle.core_size_sum", "pencil.oracle.base_sum")),
    ("pencil.rank_at", "ncrat.pencil", "PencilOracle.rank_at", None, ()),
    (None, "ncrat.pencil", "PencilOracle.is_invertible_at", _count_hit,
     ("rit.oracle_hits",)),
    ("pencil.value_at", "ncrat.pencil", "RealizedEntry.value_at", None, ()),
    ("field.sample_tuple", "ncrat.field", "sample_tuple", None, ()),
    ("field.rank", "ncrat.field", "rank_of", _count_rank,
     ("field.rank.ops", "field.rank.n_max")),
    ("field.rank", "ncrat._modnum", "rank_mod", _count_rank,
     ("field.rank.ops", "field.rank.n_max")),
    ("field.eval_pencil", "ncrat._modnum", "eval_pencil_mod", None, ()),
    ("field.invert", "ncrat.field", "invert", None, ()),
    ("field.solve", "ncrat.field", "solve", None, ()),
    ("field.matmul", "ncrat.field", "DenseMatrix.matmul", None, ()),
    ("rank.make_skew_matrix", "ncrat.rank", "make_skew_matrix", None, ()),
    ("rank.build_reduction_pencil", "ncrat.rank", "build_reduction_pencil",
     _count_reduction, ("rank.build_reduction_pencil.size",)),
    ("rank.ncrank_pencil", "ncrat.rank", "ncrank_pencil", _count_anomalies,
     ("rank.ncrank_pencil.anomalies",)),
    ("rank.assemble_at", "ncrat.rank", "assemble_at", None, ()),
    ("rit.rit_test", "ncrat.rit", "rit_test", _count_verdict,
     ("rit.rit_test.trials", "rit.witnesses")),
)

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span recorder plus the counters (sums and maxima) the hooks fill in."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.depth: Counter = Counter()  # name -> number of open spans
        self.counts: Counter = Counter()
        self.installed: set[str] = set()   # span names and counters in place

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.depth[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.depth[span[0]] -= 1

    @contextlib.contextmanager
    def bookkeeping(self):
        """A child span for harness work done inside a traced call, so that
        it is not charged to the caller's self time."""
        idx = self.begin(BOOKKEEPING)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn, hook):
        tracer = self

        if name is None:
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, result)
                return result
            return counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.end(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self, wrapped=WRAPPED) -> None:
        """Replace each wrapped function at every name ncrat binds it to.
        A name that no longer exists is reported and skipped, and the
        metrics that depend on it are left out."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ncrat" or n.startswith("ncrat.")]
        for name, modname, attr, hook, counters in wrapped:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            orig = None if owner is None else vars(owner).get(path[-1])
            if orig is None:
                print(f"warning: {modname}.{attr} not found; it is not traced",
                      file=sys.stderr)
                continue
            new = self.wrap(name, orig, hook)
            if len(path) > 1:
                setattr(owner, path[-1], new)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, new)
            self.installed.update(counters)
            if name is not None:
                self.installed.add(name)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total self time and number of spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict:
        """Every per-layer metric whose functions could be wrapped."""
        self_s, calls = self.self_times()
        has = self.installed.__contains__
        out = {}
        for name in (w[0] for w in WRAPPED):
            if name is not None and has(name):
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        for counters in (w[4] for w in WRAPPED):
            for key in counters:
                if has(key):
                    out[key] = self.counts[key]
        if has("pencil.oracle"):
            out["pencil.oracle.builds"] = calls["pencil.oracle"]
        if has("circuit.eval_circuit"):
            out["circuit.eval_circuit.undefined"] = \
                self.counts["circuit.eval_circuit.raised.Undefined"]
        if has("rit.witnesses") and has("rit.oracle_hits"):
            hits = self.counts["rit.oracle_hits"]
            out["rit.hit_yield"] = self.counts["rit.witnesses"] / hits if hits else 0.0
        if has("rit.rit_test") and has("pencil.compile_idrrsc"):
            tests = calls["rit.rit_test"]
            out["rit.compile_per_test"] = \
                calls["pencil.compile_idrrsc"] / tests if tests else 0.0
        return out

    def placement(self, wall: float) -> list:
        """Span names by self time, each with its share of the traced wall."""
        self_s, calls = self.self_times()
        return [(name, round(t, 4), round(t / wall, 4), calls[name])
                for name, t in self_s.most_common()]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

