"""Shrunk subspaces: the second Wong sequence on the oracle's core finds one
for every zero member of the reference corpus and never for a nonzero one,
over M61, Q and a prime outside the dense kernel's, check_shrunk accepts
exactly the strictly shrinking subspaces, and rit_test ending early at one
gives the verdict of the full trial loop.  The search, which eliminates
core(t) once, returns exactly the matrix (or None) of
reference.shrunk_subspace_reference, which eliminates [A | -W] afresh at
every step, and check_shrunk agrees with reference.check_shrunk_dense on
subspaces found and then spoiled."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncrat import _sparse, pencil, rit
from ncrat.circuit import classify, parse_expr, variable_reduction
from ncrat.field import (MERSENNE61, QQ, DenseMatrix, PrimeField, rank_of,
                         sample_tuple)
from ncrat.pencil import (LinearPencil, PencilOracle, check_shrunk,
                          pencil_from_rows)
from ncrat.rit import RitParams, rit_test
from conftest import random_formula
from reference import (_rank_generic, check_shrunk_dense, rit_full_loop,
                       shrunk_subspace_reference)
from test_ceiling import planted_pencils

F = PrimeField(MERSENNE61)
# the members are checked over M61 under their own names, and over Q and
# 2^61 + 15 with the field's tag appended
SEARCH_FIELDS = ((F, ""), (QQ, "-Q"), (PrimeField(2 ** 61 + 15), "-p2^61+15"))


def _members():
    """The reference corpus and its variable-reduced forms, with labels."""
    out = []
    for name, circ, zero in rit.corpus():
        out.append((name, circ, zero))
        out.append((f"{name}-reduced",
                    variable_reduction(circ, classify(circ).height), zero))
    return out


MEMBERS = _members()


def _certificate(circ, field, dims, seeds):
    """The first shrunk subspace of the circuit's gate oracle found at a
    seeded tuple, with the oracle, or (oracle, None)."""
    oracle = rit._gate_oracle(circ, field)
    for d in dims:
        for seed in seeds:
            S = oracle.shrunk_subspace(sample_tuple(field, max(circ.nvars, 1), d, seed))
            if S is not None:
                return oracle, S
    return oracle, None


def _by_field(zero):
    cases = [(n, c, f, n + tag) for f, tag in SEARCH_FIELDS
             for n, c, z in MEMBERS if z == zero]
    return pytest.mark.parametrize("name,circ,field", [case[:3] for case in cases],
                                   ids=[case[3] for case in cases])


@_by_field(zero=True)
def test_zero_members_are_certified(name, circ, field):
    oracle, S = _certificate(circ, field, dims=(1,), seeds=(0,))
    assert S is not None, name
    assert S.rows == oracle.core_size and 0 < _rank_generic(S) == S.cols
    assert check_shrunk(oracle.core, S)


@_by_field(zero=False)
def test_nonzero_members_are_never_certified(name, circ, field):
    assert _certificate(circ, field, dims=(1, 2, 3), seeds=(0, 1))[1] is None, name


def _hollow(draw, field):
    """A pencil P L0 Q of size n over 2 variables whose L0 has an r x s zero
    block with r + s > n and generic entries elsewhere, P and Q invertible
    scalar matrices; and the seed of a tuple to test it at."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    s = draw(st.integers(n - r + 1, n))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def rand_mat():
        return DenseMatrix.random(field, n, n, rng)
    P, Q = rand_mat(), rand_mat()
    assume(rank_of(P) == rank_of(Q) == n)
    coeffs = []
    for _ in range(3):
        L0 = rand_mat()
        for i in range(r):
            for j in range(s):
                L0.data[i * n + j] = field.zero
        coeffs.append(P.matmul(L0).matmul(Q).to_lists())
    return pencil_from_rows(field, coeffs), draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([F, PrimeField((1 << 31) - 1)]), st.integers(1, 2))
def test_hollow_pencils_are_certified(data, field, d):
    L, seed = _hollow(data.draw, field)
    oracle = PencilOracle(L)
    S = oracle.shrunk_subspace(sample_tuple(field, 2, d, seed))
    assert S is not None and check_shrunk(oracle.core, S)


def _same_search(oracle, t, deficit=1):
    """The search's result, after checking that it is the reference's: None
    for both, or the same shape and entries, of the same types."""
    S = oracle.shrunk_subspace(t, deficit)
    R = shrunk_subspace_reference(oracle, t, deficit)
    assert (S is None) == (R is None)
    if S is not None:
        assert (S.rows, S.cols, S.data) == (R.rows, R.cols, R.data)
        assert list(map(type, S.data)) == list(map(type, R.data))
    return S


def _deficits(oracle, t):
    """1, and the deficit that certifies rank_at(t) / d as a rank ceiling."""
    r = oracle.rank_at(t) // t.d
    return sorted({1, oracle.core_size - (r - oracle.base)})


# the corpus searches run over the search fields and F_101, which the dense
# kernel serves, so that rank_at there may hand off a block that fills in
REUSE_FIELDS = [f for f, _ in SEARCH_FIELDS] + [PrimeField(101)]
REUSE_IDS = [tag.lstrip("-") or "M61" for _, tag in SEARCH_FIELDS] + ["F101"]


def _fresh_oracle(circ, field):
    """The circuit's gate oracle, built anew rather than from rit's cache."""
    return rit._gate_oracle.__wrapped__(circ, field)


@pytest.fixture
def core_eliminations(monkeypatch):
    """A list that gains "evaluated" at each evaluation of an oracle's
    core(t) and "eliminated" at each rank_sparse call on one of them."""
    made, count = [], []
    evaluate, rank_sparse = pencil._SparseEval.__call__, _sparse.rank_sparse

    def evaluated(self, t):
        made.append(evaluate(self, t))
        count.append("evaluated")
        return made[-1]

    def eliminated(rows, p, record=None, hand_off=False):
        if any(rows is m for m in made):
            count.append("eliminated")
        return rank_sparse(rows, p, record, hand_off)
    monkeypatch.setattr(pencil._SparseEval, "__call__", evaluated)
    monkeypatch.setattr(_sparse, "rank_sparse", eliminated)
    return count


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("field", REUSE_FIELDS, ids=REUSE_IDS)
def test_search_equals_the_reference_on_the_corpus(core_eliminations, field, d):
    # rank_at(t) keeps its record (no member's core fills in), and the
    # search at t reads it: core(t) is neither evaluated nor eliminated again
    found = 0
    for name, circ, zero in MEMBERS:
        oracle = _fresh_oracle(circ, field)
        t = sample_tuple(field, max(circ.nvars, 1), d, 100 + d)
        want = shrunk_subspace_reference(_fresh_oracle(circ, field), t)
        oracle.rank_at(t)
        core_eliminations.clear()
        S = oracle.shrunk_subspace(t)
        assert core_eliminations == [], name
        assert (S is None) == (want is None), name
        if S is not None:
            assert (S.rows, S.cols, S.data) == (want.rows, want.cols, want.data), name
            assert list(map(type, S.data)) == list(map(type, want.data)), name
        found += S is not None
    assert found == sum(zero for _, _, zero in MEMBERS)


@pytest.mark.parametrize("field", REUSE_FIELDS, ids=REUSE_IDS)
def test_a_search_at_another_tuple_never_reads_the_kept_record(field):
    # the kept record is rank_at's last tuple's, read only at that tuple
    # object: a search at another tuple of the same dimension or another,
    # or at an earlier tuple once rank_at has moved on, is a fresh search's
    for name, circ, _ in MEMBERS:
        nv = max(circ.nvars, 1)
        u1, u2, v1, v2 = (sample_tuple(field, nv, d, seed)
                          for d, seed in ((1, 300), (1, 301), (2, 302), (2, 303)))
        fresh = _fresh_oracle(circ, field)         # searches, never ranks
        want = {id(t): fresh.shrunk_subspace(t) for t in (u1, u2, v1, v2)}
        oracle = _fresh_oracle(circ, field)
        for ranked, searched in (([u1], u2), ([v1], v2), ([u1], v1), ([v1], u1),
                                 ([u1, u2], u1), ([v1, u1], v1)):
            for t in ranked:
                oracle.rank_at(t)
            S, R = oracle.shrunk_subspace(searched), want[id(searched)]
            assert (S is None) == (R is None), (name, searched.d)
            assert S is None or S.data == R.data, (name, searched.d)


@settings(max_examples=80, deadline=None)
@given(planted_pencils(), st.integers(1, 3), st.integers(0, 2 ** 16))
def test_search_equals_the_reference_on_planted_pencils(L, d, seed):
    oracle = PencilOracle(L)
    t = sample_tuple(L.field, L.nvars, d, seed)
    for deficit in _deficits(oracle, t):
        _same_search(oracle, t, deficit)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([F, PrimeField((1 << 31) - 1), QQ]), st.integers(1, 3))
def test_search_equals_the_reference_on_hollow_pencils(data, field, d):
    L, seed = _hollow(data.draw, field)
    oracle = PencilOracle(L)
    t = sample_tuple(field, 2, d, seed)
    for deficit in _deficits(oracle, t):
        _same_search(oracle, t, deficit)


def _spoiled(S, rng):
    """S with one entry changed, and S with one column dropped."""
    f = S.field
    changed = DenseMatrix(f, S.rows, S.cols, S.data)
    at = rng.randrange(len(S.data))
    changed.data[at] = f.add(changed.data[at], f.normalize(rng.randrange(1, 50)))
    q = rng.randrange(S.cols)
    dropped = DenseMatrix(f, S.rows, S.cols - 1,
                          [x for i in range(S.rows) for c, x in enumerate(S.row(i)) if c != q])
    return changed, dropped


def _checks_agree(core, S, deficit, rng):
    for U in (S, *_spoiled(S, rng)):
        for asked in (deficit, deficit + 1):
            assert check_shrunk(core, U, asked) == check_shrunk_dense(core, U, asked)


@pytest.mark.parametrize("field", [f for f, _ in SEARCH_FIELDS],
                         ids=[tag.lstrip("-") or "M61" for _, tag in SEARCH_FIELDS])
def test_sparse_and_dense_checks_agree_on_spoiled_certificates(field):
    rng = random.Random(5)
    for _, circ, zero in MEMBERS:
        if zero:
            oracle, S = _certificate(circ, field, dims=(1,), seeds=(0,))
            _checks_agree(oracle.core, S, 1, rng)


@settings(max_examples=80, deadline=None)
@given(planted_pencils(), st.integers(1, 2), st.integers(0, 2 ** 16))
def test_sparse_and_dense_checks_agree_on_spoiled_planted_subspaces(L, d, seed):
    oracle = PencilOracle(L)
    t = sample_tuple(L.field, L.nvars, d, seed)
    for deficit in _deficits(oracle, t):
        S = oracle.shrunk_subspace(t, deficit)
        if S is not None and S.cols:
            _checks_agree(oracle.core, S, deficit, random.Random(seed))


def test_filled_rational_core_is_searched_in_one_elimination():
    # every entry of the 16-row core holds a variable and rows 0 and 1 are
    # equal in every coefficient, so the images of F^16 lie in y_0 = y_1;
    # eliminating [A | -W] afresh at every step took seconds over Q
    rng = random.Random(0)
    coeffs = []
    for _ in range(3):
        rows = [[rng.randrange(1, 10) for _ in range(16)] for _ in range(16)]
        rows[1] = list(rows[0])
        coeffs.append(rows)
    oracle = PencilOracle(pencil_from_rows(QQ, coeffs))
    assert oracle.core_size == 16
    t = sample_tuple(QQ, 2, 1, 1)
    assert oracle.rank_at(t) == 15
    S = oracle.shrunk_subspace(t)
    assert S is not None and S.data == DenseMatrix.identity(QQ, 16).data
    assert check_shrunk(oracle.core, S)


@pytest.mark.parametrize("field", [F, PrimeField(7), QQ])
def test_check_shrunk_wants_a_strictly_smaller_image(field):
    one = field.one
    # L = I + x1 E_01: the image of any S contains S itself (A_0 = I)
    L = LinearPencil(field, 2, 1, {(0, 0): {0: one}, (1, 1): {0: one}, (0, 1): {1: one}})
    whole = DenseMatrix.identity(field, 2)
    first = DenseMatrix.from_rows(field, [[1], [0]])
    assert not check_shrunk(L, whole)          # dim 2 = dim 2
    assert not check_shrunk(L, first)          # A_0 e_0 = e_0, A_1 e_0 = 0
    # a spanning set that is not a basis: the ranks count, not the columns
    assert not check_shrunk(L, DenseMatrix.from_rows(field, [[1, 2], [0, 0]]))
    assert not check_shrunk(L, DenseMatrix.zeros(field, 2, 0))
    # [[0, x1], [0, 1]] sends e_0 to 0 in every coefficient
    H = LinearPencil(field, 2, 1, {(0, 1): {1: one}, (1, 1): {0: one}})
    assert check_shrunk(H, first)
    assert not check_shrunk(H, whole)          # A_0 F^2 + A_1 F^2 = F^2
    assert check_shrunk(H, DenseMatrix.from_rows(field, [[3, 5], [0, 0]]))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([F, PrimeField(7), QQ]))
def test_check_shrunk_accepts_exactly_the_deficit(data, field):
    # every coefficient has a zero r x s block, so a subspace inside the
    # first s coordinates loses up to r + s - n dimensions; the deficit
    # rank S - rank [A_0 S | ...] is computed here from the dense view
    n = data.draw(st.integers(1, 6))
    r, s = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    nvars = data.draw(st.integers(0, 2))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    coeffs = [[[field.rand(rng) if i >= r or j >= s else 0 for j in range(n)]
               for i in range(n)] for _ in range(nvars + 1)]
    L = pencil_from_rows(field, coeffs)
    inside = data.draw(st.integers(0, s))
    spread = data.draw(st.integers(0, 2))
    cols = [[field.rand(rng) if i < s else 0 for i in range(n)] for _ in range(inside)]
    cols += [[field.rand(rng) for _ in range(n)] for _ in range(spread)]
    S = DenseMatrix(field, n, len(cols), [c[i] for i in range(n) for c in cols])
    images = [A.matmul(S) for A in L.coeffs]
    stacked = DenseMatrix(field, n, len(images) * S.cols,
                          [x for i in range(n) for m in images for x in m.row(i)])
    deficit = rank_of(S) - rank_of(stacked)
    for asked in range(1, n + 2):
        assert check_shrunk(L, S, asked) == (deficit >= asked)


def test_check_shrunk_rejects_a_wrong_row_count():
    L = LinearPencil(F, 2, 0, {(0, 0): {0: 1}})
    with pytest.raises(ValueError):
        check_shrunk(L, DenseMatrix.identity(F, 3))


@pytest.mark.parametrize("field,seed", [(f, seed) for f in (F, QQ) for seed in range(5)],
                         ids=[f"{tag}{seed}" for tag in ("", "Q-") for seed in range(5)])
def test_rit_verdicts_equal_the_loop_only_run(monkeypatch, field, seed):
    params = RitParams(seed=seed)
    found = []
    finder = PencilOracle.shrunk_subspace

    def counted(self, t):
        S = finder(self, t)
        found.append(S is not None)
        return S
    monkeypatch.setattr(PencilOracle, "shrunk_subspace", counted)
    early = [rit_test(circ, field, params) for _, circ, _ in rit.corpus()]
    assert sum(found) == sum(z for _, _, z in rit.corpus())
    monkeypatch.setattr(PencilOracle, "shrunk_subspace", lambda self, t: None)
    assert early == [rit_test(circ, field, params) for _, circ, _ in rit.corpus()]


RIT_FIELDS = (F, PrimeField((1 << 31) - 1), PrimeField(101), PrimeField(7), QQ)


@st.composite
def rit_circuits(draw):
    """A reference corpus member or a small random formula."""
    if draw(st.booleans()):
        return draw(st.sampled_from([circ for _, circ, _ in rit.corpus()]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_formula(rng, nvars=draw(st.integers(1, 3)),
                          height=draw(st.integers(0, 2)),
                          size_budget=draw(st.integers(1, 10)))


@settings(max_examples=100, deadline=None)
@given(rit_circuits(), st.sampled_from(RIT_FIELDS), st.integers(1, 4),
       st.integers(0, 2 ** 16))
# the commutator is singular at every scalar tuple, and no search there
# can succeed: every trial of d = 1 is a chance to search again
@example(parse_expr("x1*x2 - x2*x1"), PrimeField(7), 4, 0)
@example(parse_expr("x1*x2 - x2*x1"), QQ, 4, 0)
def test_search_at_the_first_singular_trial_gives_the_full_loop_verdict(
        circ, field, trials, seed):
    # on small fields a nonzero circuit's first tuple is often singular by
    # chance; each such dimension may cost one search, never more
    params = RitParams(dim_cap=3, trials=trials, seed=seed)
    searched = []
    finder = PencilOracle.shrunk_subspace

    def counted(self, t, deficit=1):
        searched.append(t.d)
        return finder(self, t, deficit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PencilOracle, "shrunk_subspace", counted)
        verdict = rit_test(circ, field, params)
    assert verdict == rit_full_loop(circ, field, params)
    assert len(searched) == len(set(searched))
    assert all(d < verdict.max_dim for d in searched)


def test_hua_ranks_one_tuple_and_searches_once(monkeypatch):
    ranked, searched = [], []
    rank_at, finder = PencilOracle.rank_at, PencilOracle.shrunk_subspace

    def counted_rank(self, t):
        ranked.append(t.d)
        return rank_at(self, t)

    def counted_search(self, t, deficit=1):
        S = finder(self, t, deficit)
        searched.append((t.d, S is not None))
        return S
    monkeypatch.setattr(PencilOracle, "rank_at", counted_rank)
    monkeypatch.setattr(PencilOracle, "shrunk_subspace", counted_search)
    hua = dict(rit.ZERO_EXPRESSIONS)["hua"]
    assert rit_test(parse_expr(hua), F, RitParams()).is_zero
    assert ranked == [1] and searched == [(1, True)]
