import os
import random

import pytest
from hypothesis import settings

from ncrat.circuit import CircuitBuilder, RationalCircuit, Undefined, eval_circuit
from ncrat.field import Singular, prime_field, sample_tuple
from ncrat.pencil import RealizedEntry, pencil_from_rows

F = prime_field()

# CI runs HYPOTHESIS_PROFILE=ci: examples derived from each test rather than
# drawn at random, so a failure there reproduces locally under the same
# profile, and a failing example is printed as a reproduction blob
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def field():
    return F


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def dense_route(monkeypatch):
    """Counts the calls of _modnum.solve_mod by the shape of their matrix,
    and fails any elimination that _sparse records whole, to read
    preimages from: a system that fills in is solved densely, never on the
    sparse path."""
    from ncrat import _modnum, _sparse
    calls = []
    solve_mod, rank_sparse = _modnum.solve_mod, _sparse.rank_sparse

    def counted(*args):
        calls.append(args[0].shape)
        return solve_mod(*args)

    def unrecorded(rows, p, record=None):
        assert record is None, "a dense system took the recorded sparse path"
        return rank_sparse(rows, p, record)

    def preimage(*args):
        raise AssertionError("a dense system was solved by preimages")

    monkeypatch.setattr(_modnum, "solve_mod", counted)
    monkeypatch.setattr(_sparse, "rank_sparse", unrecorded)
    monkeypatch.setattr(_sparse, "preimage", preimage)
    return calls


def random_formula(rng: random.Random, nvars: int, height: int,
                   size_budget: int = 12, field=F) -> RationalCircuit:
    """Random tree-shaped circuit whose inverse gates are applied only to
    subtrees that are visibly nonzero (checked by evaluation), so the
    result is a legitimate rational expression."""
    b = CircuitBuilder()

    def leaf() -> int:
        if rng.random() < 0.15:
            return b.const(rng.randrange(1, 9))
        return b.var(rng.randrange(1, nvars + 1))

    def build(h: int, budget: int) -> int:
        if budget <= 1:
            return leaf()
        roll = rng.random()
        if h > 0 and roll < 0.35:
            child = build(h - 1, budget - 1)
            return b.inv(child)
        if roll < 0.65:
            op = b.add if rng.random() < 0.5 else b.sub
            return op(build(h, budget // 2), build(h, budget - budget // 2 - 1))
        if roll < 0.95:
            return b.mul(build(h, budget // 2), build(h, budget - budget // 2 - 1))
        return leaf()

    for _ in range(200):
        b = CircuitBuilder()
        out = build(height, size_budget)
        circ = b.build(out, nvars=nvars)
        if _looks_sound(circ, rng):
            return circ
    raise RuntimeError("could not generate a sound random formula")


def _looks_sound(circ: RationalCircuit, rng: random.Random) -> bool:
    """Every inverse child must evaluate to a nonzero (somewhere invertible)
    value at some probe point, and the whole circuit must be defined
    somewhere."""
    inv_children = [node[1] for node in circ.nodes if node[0] == "inv"]
    defined = False
    child_ok = {i: False for i in inv_children}
    for d in (1, 2, 2):
        for _ in range(6):
            t = sample_tuple(F, max(circ.nvars, 1), d, rng)
            try:
                eval_circuit(circ, t)
                defined = True
            except Undefined:
                pass
            for ch in inv_children:
                sub = _subcircuit(circ, ch)
                try:
                    from ncrat.field import is_invertible
                    if is_invertible(eval_circuit(sub, t)):
                        child_ok[ch] = True
                except Undefined:
                    pass
        if defined and all(child_ok.values()):
            return True
    return False


def _subcircuit(circ: RationalCircuit, root: int) -> RationalCircuit:
    return RationalCircuit(circ.nodes, root, circ.nvars)


def random_pencil(rng: random.Random, size: int, nvars: int,
                  density: float = 0.6, field=F):
    rows = []
    for _ in range(nvars + 1):
        rows.append([[field.rand(rng) if rng.random() < density else 0
                      for _ in range(size)] for _ in range(size)])
    return pencil_from_rows(field, rows)


def random_realized(rng: random.Random, max_size: int = 5, nvars: int = 2,
                    tries: int = 60) -> RealizedEntry:
    """Random entry with an invertible pencil and a not-identically-zero
    realized value (a legitimate skew-field element)."""
    while True:
        size = rng.randrange(1, max_size + 1)
        L = random_pencil(rng, size, nvars)
        e = RealizedEntry(L, rng.randrange(1, size + 1), rng.randrange(1, size + 1))
        for _ in range(tries):
            t = sample_tuple(F, nvars, 1, rng)
            try:
                v = e.value_at(t)
            except Singular:
                continue
            if not v.is_zero():
                return e


def random_host_pencil(rng: random.Random, s: int, nx: int, m: int):
    """Host pencil over x variables and m placeholders, each placeholder
    occupying a single random entry."""
    rows = [[[F.rand(rng) if rng.random() < 0.7 else 0
              for _ in range(s)] for _ in range(s)]
            for _ in range(nx + 1)]
    for _ in range(m):
        B = [[0] * s for _ in range(s)]
        B[rng.randrange(s)][rng.randrange(s)] = rng.randrange(1, F.p)
        rows.append(B)
    return pencil_from_rows(F, rows)
