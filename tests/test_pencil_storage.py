"""Properties of the one pencil storage, (row, col) -> {k: value}, over
generated sparse pencils: the .lp round trip, evaluation against its
definition as a sum of Kronecker products, the structural oracle, its
sparse rows and its dense hand-offs against the textbook elimination, and
realized values solved from sparse rows against its dense inverse."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncrat import _modnum, _sparse, pencil
from ncrat.field import (MERSENNE61, QQ, DenseMatrix, PrimeField, Singular,
                         kron, sample_tuple)
from ncrat.pencil import (LinearPencil, PencilOracle, RealizedEntry,
                          dump_pencil, eval_pencil, parse_pencil)
from reference import _invert_generic, _rank_generic

# every field takes the sparse elimination; a small prime and M61 also
# hand what fills in to the dense kernel, while Q and a prime above 2^61
# outside the supported moduli stay sparse to the end
FIELDS = (PrimeField(7), PrimeField(MERSENNE61), PrimeField(2 ** 61 + 15), QQ)


def _values(field):
    if field is QQ:
        return st.fractions(-50, 50, max_denominator=20).filter(bool)
    return st.integers(1, field.p - 1)


@st.composite
def sparse_pencils(draw, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    size = draw(st.integers(1, 12))
    nvars = draw(st.integers(0, 3))
    position = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    entry = st.dictionaries(st.integers(0, nvars), _values(field), min_size=1)
    entries = draw(st.dictionaries(position, entry, max_size=3 * size))
    return LinearPencil(field, size, nvars, entries)


@st.composite
def pencils_and_points(draw, fields=FIELDS, max_d=2):
    L = draw(sparse_pencils(fields))
    d = draw(st.integers(1, max_d))
    return L, sample_tuple(L.field, L.nvars, d, draw(st.integers(0, 2 ** 16)))


@settings(max_examples=150, deadline=None)
@given(sparse_pencils(), st.none() | st.tuples(st.integers(1, 12), st.integers(1, 12)))
def test_pencil_file_round_trip_is_exact(L, rc):
    if rc is not None:
        rc = (min(rc[0], L.size), min(rc[1], L.size))
    assert parse_pencil(dump_pencil(L, rc)) == (L, rc)


@settings(max_examples=100, deadline=None)
@given(pencils_and_points())
def test_eval_pencil_is_the_kron_sum_of_the_coefficients(case):
    L, t = case
    A = L.coeffs
    want = kron(A[0], DenseMatrix.identity(L.field, t.d))
    for i in range(L.nvars):
        want = want.add(kron(A[i + 1], t.mats[i]))
    assert eval_pencil(L, t) == want


@settings(max_examples=100, deadline=None)
@given(pencils_and_points())
def test_oracle_rank_is_the_rank_of_the_evaluation(case):
    L, t = case
    assert PencilOracle(L).rank_at(t) == _rank_generic(eval_pencil(L, t))


@settings(max_examples=100, deadline=None)
@given(pencils_and_points(max_d=4))
def test_oracle_rows_are_the_nonzeros_of_the_evaluation(case):
    L, t = case
    oracle = PencilOracle(L)
    ev = eval_pencil(oracle.core, t)
    want = {i: {j: ev.at(i, j) for j in range(ev.cols) if ev.at(i, j)}
            for i in range(ev.rows)}
    assert oracle._eval_rows(t) == want


def _kron_sum_rows(L, t):
    """The nonzeros of A0 x I + sum_k Ak x t_k, from the dense
    coefficients and Kronecker products, as rows {i: {j: value}}."""
    A = L.coeffs
    ev = kron(A[0], DenseMatrix.identity(L.field, t.d))
    for k in range(L.nvars):
        ev = ev.add(kron(A[k + 1], t.mats[k]))
    return {i: {j: ev.at(i, j) for j in range(ev.cols) if ev.at(i, j)}
            for i in range(ev.rows)}


@st.composite
def evaluation_cases(draw):
    """A pencil whose entries mix constant-only ones, ones with variables
    and no constant or a stored zero constant, and rows holding one
    variable in several entries, with a tuple of dimension 1-4 that may
    hold more matrices than the pencil has variables."""
    field = draw(st.sampled_from(FIELDS))
    size, nvars = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    constant = st.none() | st.just(0) | _values(field)
    entries = {}
    for pos in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                             max_size=3 * size, unique=True)):
        e = draw(st.dictionaries(st.integers(1, nvars), _values(field))) if nvars else {}
        c = draw(constant)
        if c is not None and (c or e):
            e[0] = c
        if e:
            entries[pos] = e
    if nvars and size > 1:                      # variable 1 twice in row 0
        entries[(0, 0)] = {1: draw(_values(field))}
        entries[(0, size - 1)] = {0: 0, 1: draw(_values(field))}
    L = LinearPencil(field, size, nvars, entries)
    n = nvars + draw(st.integers(0, 2))
    return L, sample_tuple(field, n, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 16)))


@settings(max_examples=150, deadline=None)
@given(evaluation_cases())
@example((LinearPencil(QQ, 2, 0, {(0, 0): {0: Fraction(3)}, (1, 0): {0: Fraction(-1, 2)}}),
          sample_tuple(QQ, 2, 3, 5)))
def test_core_rows_are_the_kron_sum_entry_by_entry(case):
    L, t = case
    rows = pencil._SparseEval(L)(t)
    assert rows == _kron_sum_rows(L, t)
    assert all(0 < x < L.field.p for row in rows.values() for x in row.values()) \
        if L.field.p else all(type(x) is Fraction for row in rows.values() for x in row.values())


def test_core_rows_refuse_a_tuple_with_fewer_matrices():
    L = LinearPencil(QQ, 1, 2, {(0, 0): {0: Fraction(1), 2: Fraction(1)}})
    with pytest.raises(ValueError, match="fewer matrices than the pencil has variables"):
        pencil._SparseEval(L)(sample_tuple(QQ, 1, 2, 0))


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 31) - 1])
def test_dense_core_is_ranked_densely(monkeypatch, p):
    # every entry holds a variable, and core rows 0 and 1 are equal: the rows
    # fill the whole evaluation, so the oracle evaluates it densely, and does
    # not search it for a shrunk subspace by sparse elimination
    field = PrimeField(p)
    rng = random.Random(p)
    entries = {(r, c): {0: field.rand(rng), rng.randrange(1, 4): field.rand(rng)}
               for r in range(1, 24) for c in range(24)}
    entries.update({(0, c): dict(entries[(1, c)]) for c in range(24)})
    L = LinearPencil(field, 24, 3, entries)
    oracle = PencilOracle(L)
    t = sample_tuple(field, 3, 4, 7)
    expect = _rank_generic(eval_pencil(L, t))
    calls = []
    monkeypatch.setattr(_sparse, "rank_sparse", lambda *a: calls.append(a))
    assert oracle.rank_at(t) == expect == 23 * 4
    assert oracle.shrunk_subspace(t) is None
    assert not calls


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 31) - 1])
def test_arrow_core_fills_in_and_is_handed_off(monkeypatch, p):
    # a block arrow: block column 0 and block row 0 full, and the diagonal.
    # The pivot rows of column 0 come from block row 1 and spread its
    # diagonal block into every row, so the active block fills in
    field = PrimeField(p)
    entries = {}
    for i in range(12):
        entries[(i, 0)] = {1: 1}
        entries[(0, i)] = {2: p - 1}
        entries[(i, i)] = {0: 1, 3: 1}
    L = LinearPencil(field, 12, 3, entries)
    oracle = PencilOracle(L)
    seen = []                  # (rows, columns) of each block handed off
    dense = _modnum.rank_rows
    monkeypatch.setattr(_modnum, "rank_rows", lambda live, order, p:
                        seen.append((len(live), len(order))) or dense(live, order, p))
    evaluate, evaluated = pencil._SparseEval.__call__, []
    monkeypatch.setattr(pencil._SparseEval, "__call__",
                        lambda self, t: evaluated.append(t) or evaluate(self, t))
    for seed in range(3):
        t = sample_tuple(field, 3, 8, seed)
        assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t))
        # the elimination handed off keeps no record: a search at t
        # evaluates core(t) again and eliminates it sparse to the end
        evaluated.clear()
        assert oracle.shrunk_subspace(t) is None and evaluated == [t]
    assert seen and all(0 < rows < 96 for rows, _ in seen)


def _dense_value(e, t):
    """The (row, col) block of the generic inverse of the dense evaluation,
    or Singular."""
    ev = eval_pencil(e.pencil, t)
    if _rank_generic(ev) < ev.rows:
        return Singular
    inv, d = _invert_generic(ev), t.d
    return DenseMatrix(ev.field, d, d, [inv.at((e.row - 1) * d + a, (e.col - 1) * d + b)
                                        for a in range(d) for b in range(d)])


def _value(e, t):
    try:
        return e.value_at(t)
    except Singular:
        return Singular


SOLVE_FIELDS = FIELDS + (PrimeField(101), PrimeField((1 << 31) - 1))


@settings(max_examples=150, deadline=None)
@given(st.data(), pencils_and_points(SOLVE_FIELDS, max_d=4), st.booleans())
def test_sparse_value_at_is_the_dense_solve(data, case, unit_diagonal):
    # the pencils are often singular; a unit A0 diagonal makes most invertible
    L, t = case
    if unit_diagonal:
        entries = {key: dict(e) for key, e in L.entries.items()}
        for i in range(L.size):
            entries.setdefault((i, i), {})[0] = L.field.one
        L = LinearPencil(L.field, L.size, L.nvars, entries)
    corner = st.sampled_from([1, L.size]) | st.integers(1, L.size)
    e = RealizedEntry(L, data.draw(corner), data.draw(corner))
    assert _value(e, t) == _dense_value(e, t)


@pytest.mark.parametrize("p", [MERSENNE61, (1 << 31) - 1])
def test_filled_value_at_is_solved_densely(dense_route, p):
    # every entry holds a variable: at d = 4 the 80-row evaluation fills in,
    # so value_at solves it once by solve_mod and never records a sparse
    # elimination
    field = PrimeField(p)
    rng = random.Random(p)
    entries = {(r, c): {0: field.rand(rng), 1 + (r + c) % 2: field.rand(rng)}
               for r in range(20) for c in range(20)}
    e = RealizedEntry(LinearPencil(field, 20, 2, entries), 20, 3)
    t = sample_tuple(field, 2, 4, 5)
    assert _value(e, t) == _dense_value(e, t)
    assert dense_route == [(80, 80)]


def test_entries_hold_no_zeros():
    L, _ = parse_pencil("field rational\nsize 2\nnvars 1\n"
                        "coeff 0\n1 1 1/2\n1 1 0\n2 1 3\nend\n"
                        "coeff 1\n2 1 -1\nend\n")
    assert L.entries == {(1, 0): {0: Fraction(3), 1: Fraction(-1)}}


def test_pencil_reader_allocates_per_entry_not_per_slot():
    text = "field prime 7\nsize 2000\nnvars 3\ncoeff 2\n1999 7 3\nend\n"
    tracemalloc.start()
    try:
        L, _ = parse_pencil(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.entries == {(1998, 6): {2: 3}}
    assert peak < 5 * 2 ** 20
