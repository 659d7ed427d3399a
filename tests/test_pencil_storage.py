"""Properties of the one pencil storage, (row, col) -> {k: value}, over
generated sparse pencils: the .lp round trip, evaluation against its
definition as a sum of Kronecker products, and the structural oracle
against plain elimination."""

import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncrat.field import (MERSENNE61, QQ, DenseMatrix, PrimeField, kron,
                         rank_of, sample_tuple)
from ncrat.pencil import (LinearPencil, PencilOracle, dump_pencil, eval_pencil,
                          parse_pencil)

# a small prime and M61 take the numpy path; Q and a prime above 2^61
# outside the supported moduli take the generic one
FIELDS = (PrimeField(7), PrimeField(MERSENNE61), PrimeField(2 ** 61 + 15), QQ)


def _values(field):
    if field is QQ:
        return st.fractions(-50, 50, max_denominator=20).filter(bool)
    return st.integers(1, field.p - 1)


@st.composite
def sparse_pencils(draw):
    field = draw(st.sampled_from(FIELDS))
    size = draw(st.integers(1, 12))
    nvars = draw(st.integers(0, 3))
    position = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    entry = st.dictionaries(st.integers(0, nvars), _values(field), min_size=1)
    entries = draw(st.dictionaries(position, entry, max_size=3 * size))
    return LinearPencil(field, size, nvars, entries)


@st.composite
def pencils_and_points(draw):
    L = draw(sparse_pencils())
    d = draw(st.integers(1, 2))
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
    assert PencilOracle(L).rank_at(t) == rank_of(eval_pencil(L, t))


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
