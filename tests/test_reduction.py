"""The oracle's structural reduction: how far it gets on every gate of the
reference corpus, that it counts out the variable entries a pivot removes,
that it leaves its pencil as it was, and that base * d + rank core(t) is
the rank of the evaluated pencil over every field."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrat.circuit import classify, variable_reduction
from ncrat.field import MERSENNE61, QQ, PrimeField, sample_tuple
from ncrat.pencil import (PencilOracle, eval_pencil, pencil_from_rows,
                          realize_inverse)
from ncrat.rit import compile_circuit, corpus
from reference import _rank_generic

GATE_FIELDS = (PrimeField(MERSENNE61), QQ, PrimeField(7))
FIELDS = (PrimeField(MERSENNE61), PrimeField((1 << 31) - 1), PrimeField(101),
          PrimeField(7), QQ)

# PencilOracle(realize_inverse(compile_circuit(c, F)).pencil).base for each
# member c of rit.corpus(), over M61, Q and F_7, then for its
# variable_reduction form over the same fields.  The values are those the
# previous implementation of the reduction reached (a key-sorted copy of
# the entries, reduced from set worklists), so a pivot rule that stops
# earlier, such as one that forgets to count out the variable entries a
# pivot removes (hua-first-term and conjugate reduced), fails here.
PINNED_BASES = {
    'var': (2, 2, 2, 2, 2, 2),
    'sum': (2, 2, 2, 3, 3, 3),
    'product': (2, 2, 2, 2, 2, 2),
    'commutator': (2, 2, 2, 2, 2, 2),
    'inverse': (14, 14, 14, 18, 18, 18),
    'inverse-sum': (16, 16, 16, 16, 16, 16),
    'commutator-inverse': (16, 16, 16, 36, 36, 36),
    'sandwich': (38, 38, 38, 294, 294, 294),
    'resolvent-difference': (16, 16, 16, 17, 17, 17),
    'double-inverse': (24, 24, 24, 24, 24, 24),
    'nested-sum-inverse': (24, 24, 24, 224, 224, 224),
    'hua-first-term': (92, 92, 92, 1392, 1392, 1392),
    'cyclic-difference': (2, 2, 2, 2, 2, 2),
    'conjugate': (42, 42, 42, 218, 218, 218),
    'difference': (2, 2, 2, 3, 3, 3),
    'constant': (3, 3, 3, 3, 3, 3),
    'commutator-inverse-times': (26, 26, 26, 270, 270, 270),
    'harmonic-pair': (26, 26, 26, 26, 26, 26),
    'affine-square': (3, 3, 3, 5, 5, 5),
    'cancelling-product': (24, 24, 24, 108, 108, 108),
    'postfix-inverse': (14, 14, 14, 25, 25, 25),
    'quadratic-shift': (3, 3, 3, 4, 4, 4),
    'swap-inverses': (28, 28, 28, 38, 38, 38),
    'affine': (2, 2, 2, 4, 4, 4),
    'hua': (96, 96, 96, 1379, 1379, 1379),
    'hua-swapped': (96, 96, 96, 2620, 2620, 2620),
    'self-difference': (2, 2, 2, 2, 2, 2),
    'product-difference': (2, 2, 2, 2, 2, 2),
    'inverse-difference': (16, 16, 16, 16, 16, 16),
    'one-minus-unit': (39, 39, 39, 209, 209, 209),
    'double-inverse-minus': (24, 24, 24, 218, 218, 218),
    'unit-of-sum': (39, 39, 39, 660, 660, 660),
    'zero': (2, 2, 2, 2, 2, 2),
}

CORPUS = {label: circ for label, circ, _ in corpus()}


def _snapshot(L):
    return [(key, id(e), dict(e)) for key, e in L.entries.items()]


def test_pinned_bases_cover_the_corpus():
    assert set(PINNED_BASES) == set(CORPUS)


@pytest.mark.parametrize("label", sorted(PINNED_BASES))
def test_gate_base_is_pinned(label):
    c = CORPUS[label]
    forms = (c, variable_reduction(c, classify(c).height))
    bases = []
    for form in forms:
        for field in GATE_FIELDS:
            L = realize_inverse(compile_circuit(form, field)).pencil
            before = _snapshot(L)
            oracle = PencilOracle(L)
            assert _snapshot(L) == before          # read in place, never written
            assert oracle.base + oracle.core_size == L.size
            bases.append(oracle.base)
    assert tuple(bases) == PINNED_BASES[label]


def test_counted_out_variable_entry_frees_a_column_pivot():
    # [[1, x, 0], [0, 1, y], [0, 0, x]]: no row is constant; column 0 is,
    # and its pivot row takes x out of column 1, which leaves column 1
    # constant, and its pivot takes y out of column 2: base 2, core [x]
    L = pencil_from_rows(QQ, [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                              [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                              [[0, 0, 0], [0, 0, 1], [0, 0, 0]]])
    oracle = PencilOracle(L)
    assert (oracle.base, oracle.core_size) == (2, 1)
    assert oracle.core.entries == {(0, 0): {1: 1}}


# ±1 and non-unit constants, as the compiler's links and coefficients are
VALUES = (1, -1, 1, -1, 2, -3, Fraction(1, 2))


@st.composite
def compiler_shaped(draw):
    """An identity with some diagonal entries scaled or dropped, constant
    links off the diagonal, a few affine entries c0 + v x_k, up to two rows
    or columns set to a multiple of another, and its rows and columns
    permuted at random."""
    n = draw(st.integers(1, 9))
    nvars = draw(st.integers(1, 3))
    cell = st.integers(0, n - 1)
    dense = [[[0] * n for _ in range(n)] for _ in range(nvars + 1)]
    diag = draw(st.lists(st.sampled_from(VALUES + (None,)), min_size=n, max_size=n))
    for i, v in enumerate(diag):
        if v is not None:
            dense[0][i][i] = v
    for i, j, v in draw(st.lists(st.tuples(cell, cell, st.sampled_from(VALUES)),
                                 max_size=2 * n)):
        dense[0][i][j] = v
    for i, j, v0, k, v in draw(st.lists(
            st.tuples(cell, cell, st.sampled_from((0, 1, -1, 2)),
                      st.integers(1, nvars), st.sampled_from(VALUES)),
            max_size=3)):
        dense[0][i][j] = v0
        dense[k][i][j] = v
    # a row or column made a multiple of another drops the rank only
    # through exact cancellation, which a mis-scaled elimination misses
    for i, j, v, row in draw(st.lists(st.tuples(cell, cell, st.sampled_from(VALUES),
                                                st.booleans()), max_size=2)):
        for m in dense:
            if row:
                m[i] = [v * x for x in m[j]]
            else:
                for line in m:
                    line[i] = v * line[j]
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return [[[m[rows[i]][cols[j]] for j in range(n)] for i in range(n)]
            for m in dense], nvars


@settings(max_examples=100, deadline=None)
@given(compiler_shaped(), st.sampled_from(FIELDS), st.integers(0, 1 << 30))
def test_rank_at_is_exact_on_compiler_shaped_pencils(shaped, field, seed):
    rows, nvars = shaped
    L = pencil_from_rows(field, rows)
    before = _snapshot(L)
    oracle = PencilOracle(L)
    assert _snapshot(L) == before
    assert oracle.base + oracle.core_size == L.size
    rng = random.Random(seed)
    for d in (1, 2, 3):
        t = sample_tuple(field, nvars, d, rng)
        assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t))
