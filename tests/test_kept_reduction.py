"""The kept reduction of a realized entry and the ncrank path built on it.

_reduce(L, (row, col)) pivots like _reduce(L) but never at column row - 1
or row col - 1, and returns where the core holds the same element: that
RealizedEntry's value, its Singular and the rank identity base d + rank
core(t) = rank L(t) are checked against tests/reference.py's dense
elimination over four fields.  ncrank_skew ranks the reduction pencil over
the kept reductions, and must give the RankResult that ranking it over the
full entry pencils gives (reference.ncrank_skew_full).  With nothing kept,
_reduce must give the (base, core) it gave before it could keep anything,
pinned by hash over the reference corpus gates."""

import hashlib
import importlib.util
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import _invert_generic, _rank_generic, assemble_full, ncrank_skew_full
from test_ceiling import _uv_3x1
from test_circuit import _random_circuit
from test_golden import SKEW3
from test_rank import mixed_grids

from ncrat import pencil, rank
from ncrat.circuit import classify, parse_expr, to_idrrsc, variable_reduction
from ncrat.field import MERSENNE61, QQ, PrimeField, Singular, rank_of, sample_tuple
from ncrat.pencil import (PencilOracle, RealizedEntry, _reduce, compile_idrrsc,
                          eval_pencil, pencil_from_rows, realize_inverse)
from ncrat.rank import (DivisibilityAnomaly, RankParams, assemble_at,
                        make_skew_matrix, ncrank_skew, probe_invertible,
                        read_skew_file)
from ncrat.rit import _gate_oracle, compile_circuit, corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
M61, F7, F101 = PrimeField(MERSENNE61), PrimeField(7), PrimeField(101)
FIELDS = (M61, F101, PrimeField((1 << 61) + 15), QQ)
VALUES = (1, -1, 2, -3, Fraction(1, 2))


@st.composite
def kept_cases(draw):
    """(field, dense rows per coefficient, row, col): a compiler-like pencil
    (constant diagonal and links, a few affine entries) or one whose every
    entry holds a variable, of size 1-6, sometimes with the kept row col -
    1 or the kept column row - 1 set to zero."""
    field = draw(st.sampled_from(FIELDS))
    n, nvars = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    row, col = draw(st.integers(1, n)), draw(st.integers(1, n))
    dense = [[[0] * n for _ in range(n)] for _ in range(nvars + 1)]
    cell = st.integers(0, n - 1)
    if draw(st.booleans()):                 # every entry holds a variable
        for i in range(n):
            for j in range(n):
                dense[0][i][j] = draw(st.sampled_from((0,) + VALUES))
                dense[draw(st.integers(1, nvars))][i][j] = draw(st.sampled_from(VALUES))
    else:
        for i, v in enumerate(draw(st.lists(st.sampled_from(VALUES + (None,)),
                                            min_size=n, max_size=n))):
            dense[0][i][i] = v or 0
        for i, j, v in draw(st.lists(st.tuples(cell, cell, st.sampled_from(VALUES)),
                                     max_size=2 * n)):
            dense[0][i][j] = v
        for i, j, k, v in draw(st.lists(st.tuples(cell, cell, st.integers(1, nvars),
                                                  st.sampled_from(VALUES)), max_size=3)):
            dense[k][i][j] = v
    zero_row, zero_col = draw(st.booleans()), draw(st.booleans())
    for m in dense:
        if zero_row:
            m[col - 1] = [0] * n
        if zero_col:
            for line in m:
                line[row - 1] = 0
    return field, dense, row, col


def _snapshot(L):
    return [(key, id(e), dict(e)) for key, e in L.entries.items()]


@settings(max_examples=150, deadline=None)
@given(kept_cases(), st.integers(0, 1 << 30))
# size 1, constant and variable; designated row equal to column; a zero
# kept row and a zero kept column; a pencil of variable entries only
@example((QQ, [[[3]], [[0]]], 1, 1), 0)
@example((M61, [[[0]], [[5]]], 1, 1), 0)
@example((F101, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], 2, 2), 1)
@example((M61, [[[1, 1], [0, 0]], [[0, 0], [0, 0]]], 1, 1), 2)
@example((QQ, [[[1, 0], [1, 0]], [[0, 1], [0, 1]]], 1, 2), 3)
@example((PrimeField((1 << 61) + 15), [[[1, 2], [3, 4]], [[5, 6], [7, 1]]], 2, 1), 4)
def test_kept_reduction_matches_the_dense_inverse(case, seed):
    field, dense, row, col = case
    L = pencil_from_rows(field, dense)
    before = _snapshot(L)
    base, core, kept, full = _reduce(L, (row, col))
    g = RealizedEntry(core, *kept)
    assert _snapshot(L) == before
    assert base + g.size == L.size
    if all(len(e) > (0 in e) for e in L.entries.values()) and len(L.entries) == L.size ** 2:
        assert (base, g.row, g.col, g.pencil.entries) == (0, row, col, L.entries)
    e = RealizedEntry(L, row, col)
    rng = random.Random(seed)
    for d in (1, 2, 3):
        t = sample_tuple(field, L.nvars, d, rng)
        A = eval_pencil(L, t)
        rank = _rank_generic(A)
        core_rank = _rank_generic(eval_pencil(g.pencil, t))
        assert rank == base * d + core_rank
        assert rank == L.size * d or not full
        if rank < L.size * d:
            for entry in (e, g):
                with pytest.raises(Singular):
                    entry.value_at(t)
            continue
        inv = _invert_generic(A)
        want = [inv.at((row - 1) * d + a, (col - 1) * d + b)
                for a in range(d) for b in range(d)]
        assert e.value_at(t).data == want
        assert g.value_at(t).data == want


def test_sparse_rows_are_built_once_per_entry(monkeypatch):
    built = []
    init = pencil._SparseEval.__init__

    def counted(self, L):
        built.append(L.size)
        init(self, L)
    monkeypatch.setattr(pencil._SparseEval, "__init__", counted)
    e = compile_idrrsc(to_idrrsc(parse_expr("inv(x1 + x2*x1) + x2")), M61)
    rng = random.Random(3)
    for d in (1, 2, 2, 3):
        e.value_at(sample_tuple(M61, 2, d, rng))
    assert built == [e.reduced.size]


def test_each_entry_is_reduced_once(monkeypatch):
    """Over reading higman.skm, ranking it and assembling it at the witness,
    each nonzero entry is reduced once, kept, by its oracle, and each
    ncrank_pencil call reduces its pencil once with nothing kept."""
    kept, ranked = [], []
    reduce, ncrank_pencil = pencil._reduce, rank.ncrank_pencil

    def counted_reduce(L, keep=None):
        kept.append(keep is not None)
        return reduce(L, keep)

    def counted_rank(*args):
        ranked.append(args)
        return ncrank_pencil(*args)
    monkeypatch.setattr(pencil, "_reduce", counted_reduce)
    monkeypatch.setattr(rank, "ncrank_pencil", counted_rank)
    M = read_skew_file(WORKLOADS.HIGMAN, M61)
    res = ncrank_skew(M, RankParams(trials=8, seed=0))
    assemble_at(M, res.witness)
    nonzero = sum(e is not None for row in M.entries for e in row)
    assert (kept.count(True), kept.count(False)) == (nonzero, len(ranked))


# -- ncrank over the kept reductions ----------------------------------------------


def _grid_workload():
    """perfbench's workloads module, for the seed-401 ncrank-grid grids."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _grid_workload()
GRID_ITEMS = WORKLOADS.NcrankGrid(401).items() + [
    WORKLOADS.RankItem("skew3-golden", SKEW3, 3, 2, 11)]


def _compiled(texts, field):
    return make_skew_matrix([[None if src == "0" else
                              compile_idrrsc(to_idrrsc(parse_expr(src)), field)
                              for src in row] for row in texts], field)


def _outcome(rank, M, params):
    try:
        return rank(M, params)
    except DivisibilityAnomaly:
        return DivisibilityAnomaly


def _same_as_full(M, params):
    """ncrank_skew over the kept reductions against the full pencils; the
    probes and the certificate's grid agree too."""
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            if e is not None:
                assert probe_invertible(e.oracle, 17 * i + j) == \
                    probe_invertible(PencilOracle(e.pencil), 17 * i + j)
    res = _outcome(ncrank_skew, M, params)
    assert res == _outcome(ncrank_skew_full, M, params)
    if res is not DivisibilityAnomaly:
        assert assemble_at(M, res.witness) == assemble_full(M, res.witness)


@pytest.mark.parametrize("field", [M61, F101], ids=["M61", "F101"])
@pytest.mark.parametrize("item", GRID_ITEMS, ids=[it.label for it in GRID_ITEMS])
def test_ncrank_equals_the_full_pencils_on_workload_grids(item, field):
    M = read_skew_file(WORKLOADS.HIGMAN, field) if item.grid is None \
        else _compiled(item.grid, field)
    _same_as_full(M, RankParams(trials=8, seed=item.seed))


def test_ncrank_equals_the_full_pencils_on_the_ceiling_grid():
    _same_as_full(_uv_3x1(), RankParams(d_schedule=tuple(range(1, 7)), trials=8, seed=41))


@settings(max_examples=30, deadline=None)
@given(mixed_grids(), st.integers(1, 4), st.integers(0, 2 ** 16))
def test_ncrank_equals_the_full_pencils_on_mixed_grids(grid, trials, seed):
    field, entries = grid
    _same_as_full(make_skew_matrix(entries, field), RankParams(trials=trials, seed=seed))


# -- nothing kept: rit's gates reduce as before ------------------------------------

# SHA-256 of repr((label, base, core.size, sorted core entries)) over every
# reference corpus member and its variable-reduced form, as rit's gate
# oracle reduces them, recorded before _reduce could keep an entry.
GATE_DIGESTS = {
    "M61": "9eb54b1c481a1f9246f010b1c966341ffc852ee96505469e001294462e1704b8",
    "Q": "36743cc129cc7241921938352bc3bc875e468e836644f65b6529c8f6e2500e40",
}


def _reduced(oracle):
    return oracle.base, oracle.core.size, sorted(oracle.core.entries.items())


@pytest.mark.parametrize("name, field", [("M61", M61), ("Q", QQ)])
def test_gate_reductions_are_unchanged(name, field):
    """The paper gate, reduced by _reduce, and rit's gate oracle, built on
    the condensed composition, both give the recorded digest; the oracle's
    size is the paper gate's."""
    paper, condensed = hashlib.sha256(), hashlib.sha256()
    for label, c, _ in corpus():
        for form in (c, variable_reduction(c, classify(c).height)):
            L = realize_inverse(compile_circuit(form, field)).pencil
            base, core, _, _ = _reduce(L)
            paper.update(repr((label, base, core.size, sorted(core.entries.items()))).encode())
            oracle = _gate_oracle(form, field)
            assert oracle.size == L.size
            condensed.update(repr((label, *_reduced(oracle))).encode())
    assert paper.hexdigest() == GATE_DIGESTS[name]
    assert condensed.hexdigest() == GATE_DIGESTS[name]


def _compile_pin_circuits():
    """The circuits of test_compiled_pencils_are_unchanged but the corpus:
    240 seeded random circuits (every third a DAG that shares inverse
    gates), inv( nested 60 deep and one top holding 43 inverse gates."""
    rng = random.Random(0x1DF)
    circuits = [_random_circuit(rng, dag=k % 3 == 2) for k in range(240)]
    circuits.append(parse_expr("inv(" * 60 + "x1 + inv(x2)" + ")" * 60))
    circuits.append(parse_expr(" + ".join(["inv(x1)"] * 40)
                               + " + x2*inv(inv(x1))*inv(x2)"))
    return circuits


@pytest.mark.parametrize("field", [M61, F7, QQ], ids=["M61", "F7", "Q"])
def test_condensed_gate_reduces_as_the_paper_gate(field):
    """rit's gate oracle, built on compile_condensed, has the size, base and
    core of the paper gate's oracle, and its rank_at is the paper gate's
    exact rank at tuples of dimension 1-3."""
    rng = random.Random(0x6A7E)
    for c in _compile_pin_circuits():
        L = realize_inverse(compile_circuit(c, field)).pencil
        want, got = PencilOracle(L), _gate_oracle(c, field)
        assert (got.size, *_reduced(got)) == (want.size, *_reduced(want))
        for d in (1, 2, 3):
            t = sample_tuple(field, max(c.nvars, 1), d, rng)
            assert got.rank_at(t) == rank_of(eval_pencil(L, t))
