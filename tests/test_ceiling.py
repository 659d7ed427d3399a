"""Rank ceilings certified by shrunk subspaces: ncrank_pencil searches for
a ceiling from a dimension's first trial and ends a dimension's trials at
the first rank reaching its ceiling c, certified or L.size.  Once the best
rank meets c at witness dimension d0, every later multiple d of d0 is
decided without sampling as (d, c d, c): witness (x) I_(d/d0) has rank
c d, which no tuple exceeds.  Every other field of the result is the one
ranking every trial gives; a ceiling certified at the first trial of d = 1
leaves only d = 1 ranked; and no rank found by many more trials exceeds a
certified ceiling."""

import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncrat.circuit import parse_expr, to_idrrsc
from ncrat.field import (MERSENNE61, QQ, DenseMatrix, MatrixTuple, PrimeField,
                         kron, sample_tuple)
from ncrat.pencil import (PencilOracle, compile_idrrsc, eval_pencil,
                          pencil_from_rows)
from ncrat.rank import (DivisibilityAnomaly, RankParams, RankResult,
                        build_reduction_pencil, make_skew_matrix, ncrank_pencil,
                        ncrank_skew, read_skew_file)
from reference import _rank_generic
from test_golden import SKEW3, _skew_of

F = PrimeField(MERSENNE61)
FIELDS = (F, PrimeField((1 << 31) - 1), PrimeField(101), PrimeField(7), QQ)


def _full_loop(L, params):
    """ncrank_pencil without a ceiling: every trial of every dimension is
    ranked, in the same rng order, with the same retry and acceptance."""
    schedule = params.d_schedule or tuple(range(1, L.size + 1))
    oracle = PencilOracle(L)
    best_r, best, per_dim, anomalies = 0, None, [], 0
    for d in schedule:
        rng = random.Random(params.seed * 1_000_003 + d)
        max_rank, max_t = -1, None
        for attempt, trials in enumerate((params.trials, 2 * params.trials)):
            if attempt and d != schedule[-1]:
                break
            for _ in range(trials):
                t = sample_tuple(L.field, max(L.nvars, 1), d, rng)
                rk = oracle.rank_at(t)
                if rk > max_rank:
                    max_rank, max_t = rk, t
            if max_rank % d == 0:
                break
            anomalies += 1
        if max_rank % d != 0:
            if d == schedule[-1]:
                raise DivisibilityAnomaly("not divisible after retry")
            per_dim.append((d, max_rank, None))
            continue
        per_dim.append((d, max_rank, max_rank // d))
        if best is None or max_rank // d > best_r:
            best_r, best = max_rank // d, (d, max_t, max_rank)
    if best is None:
        raise DivisibilityAnomaly("no dimension accepted")
    return RankResult(r=best_r, d=best[0], witness=best[1], certificate=best[2],
                      per_dim=tuple(per_dim), anomalies=anomalies)


def _outcome(rank, L, params):
    try:
        return rank(L, params)
    except DivisibilityAnomaly:
        return DivisibilityAnomaly


def _unit_triangular(field, n, rng, lower):
    m = DenseMatrix.identity(field, n)
    for i in range(n):
        for j in range(i):
            m.data[i * n + j if lower else j * n + i] = field.rand(rng)
    return m


@st.composite
def planted_pencils(draw, fields=FIELDS):
    """[[I_b, C], [B, L0 + L1 x1 + ...]] over 1-3 variables, B and C
    constant: the constant rows give the oracle a base of b; each Lk has a
    zero r x s block with r + s >= n, which lowers the rank when r + s > n,
    or half of the time is skew-symmetric, where the first dimension's
    ranks can stay below the noncommutative rank.  Half of them
    are then multiplied by invertible scalar P and Q (products of unit
    triangular matrices), which leaves the oracle no constant row."""
    field = draw(st.sampled_from(fields))
    n, b, nvars = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    r = draw(st.integers(0, n))
    s = draw(st.integers(n - r, n))
    skew = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    N = n + b
    coeffs = []
    for k in range(nvars + 1):
        A = DenseMatrix.zeros(field, N, N)
        for i in range(n):
            for j in range(n):
                if skew and j < i:
                    # of odd size n, singular at every scalar point
                    x = field.rand(rng)
                    A.data[(b + i) * N + b + j] = x
                    A.data[(b + j) * N + b + i] = field.neg(x)
                elif not skew and (i >= r or j >= s):
                    A.data[(b + i) * N + b + j] = field.rand(rng)
        if k == 0:
            for i in range(b):
                A.data[i * N + i] = field.one
                for j in range(b, N):
                    A.data[i * N + j] = field.rand(rng)
                    A.data[j * N + i] = field.rand(rng)
        coeffs.append(A)
    if draw(st.booleans()):
        P = _unit_triangular(field, N, rng, True).matmul(
            _unit_triangular(field, N, rng, False))
        Q = _unit_triangular(field, N, rng, False).matmul(
            _unit_triangular(field, N, rng, True))
        coeffs = [P.matmul(A).matmul(Q) for A in coeffs]
    return pencil_from_rows(field, [A.to_lists() for A in coeffs])


def _blown_up_rank(L, t, k):
    """Rank of L at t (x) I_k by the textbook elimination."""
    one = DenseMatrix.identity(L.field, k)
    return _rank_generic(eval_pencil(
        L, MatrixTuple(L.field, t.d * k, tuple(kron(m, one) for m in t.mats))))


def _decided(L, full, certified):
    """Which of full.per_dim's dimensions ncrank_pencil decides without
    sampling: a multiple of the best tuple's dimension once the best rank
    is L.size or a ceiling some shrunk subspace certified."""
    best_r, best_d, out = 0, None, []
    for d, _, acc in full.per_dim:
        out.append(best_d is not None and d % best_d == 0
                   and (best_r == L.size or best_r in certified))
        if acc is not None and (best_d is None or acc > best_r):
            best_r, best_d = acc, d
    return out


# diag(x1, x2, x3) over F_7: d = 1 reaches full rank 3, and the one trial
# at d = 2 draws a singular matrix, rank 5; the proven maximum is 6
_DIAG_F7 = pencil_from_rows(PrimeField(7), [
    [[int(k and i == j == k - 1) for j in range(3)] for i in range(3)]
    for k in range(4)])


@settings(max_examples=120, deadline=None)
@given(planted_pencils(), st.integers(1, 4), st.integers(0, 2 ** 16),
       st.sampled_from([None, (1, 2), (1, 2, 3), (2, 1, 3), (1, 1, 2)]))
@example(_DIAG_F7, 1, 1, (1, 2, 3))
def test_ceiling_gives_the_full_loop_result(L, trials, seed, schedule):
    if L.field is QQ and schedule is None:
        schedule = (1, 2)
    params = RankParams(d_schedule=schedule, trials=trials, seed=seed)
    certified = set()
    finder = PencilOracle.shrunk_subspace

    def recorded(self, t, deficit=1):
        S = finder(self, t, deficit)
        if S is not None:
            certified.add(self.rank_at(t) // t.d)
        return S
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PencilOracle, "shrunk_subspace", recorded)
        res = _outcome(ncrank_pencil, L, params)
    full = _outcome(_full_loop, L, params)
    if full is DivisibilityAnomaly:
        # the full loop raises at its last dimension, which may be decided
        if res is not DivisibilityAnomaly:
            d, max_rank, acc = res.per_dim[-1]
            assert d % res.d == 0 and (max_rank, acc) == (res.r * d, res.r)
        return
    assert (res.r, res.d, res.witness, res.certificate) == \
        (full.r, full.d, full.witness, full.certificate)
    assert res.anomalies <= full.anomalies
    decided = _decided(L, full, certified)
    for is_decided, rec, full_rec in zip(decided, res.per_dim, full.per_dim,
                                          strict=True):
        if not is_decided:
            assert rec == full_rec
            continue
        d = rec[0]
        assert rec == (d, res.r * d, res.r)
        assert full_rec[1] <= res.r * d
        assert _blown_up_rank(L, res.witness, d // res.d) == res.r * d
    if not any(decided):
        assert res == full


@settings(max_examples=40, deadline=None)
@given(planted_pencils(FIELDS[:4]), st.integers(0, 2 ** 16))
def test_certified_ceilings_bound_many_more_trials(L, seed):
    ceilings = []
    finder = PencilOracle.shrunk_subspace

    def recorded(self, t, deficit=1):
        # a certificate makes the rank at t, r_d d, the ceiling r_d, which
        # the deficit asked for must prove: base + core_size - deficit
        S = finder(self, t, deficit)
        if S is not None:
            ceilings.append(self.rank_at(t) // t.d)
            assert ceilings[-1] == self.base + self.core_size - deficit
        return S
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PencilOracle, "shrunk_subspace", recorded)
        _outcome(ncrank_pencil, L, RankParams(d_schedule=(1, 2, 3), trials=4, seed=seed))
    if ceilings:
        wide = _outcome(_full_loop, L, RankParams((1, 2, 3), 64, seed + 1))
        if wide is not DivisibilityAnomaly:
            assert all(max_rank <= min(ceilings) * d for d, max_rank, _ in wide.per_dim)


def _uv_3x1():
    """The grid u v^T of affine forms u_i = a_i + b_i x1, v_j = c_j + e_j x2:
    ncrank 1, entry pencils of size 4 after normalization."""
    u = [(2, 3), (5, 1), (4, 7)]
    v = [(1, 6), (3, 2), (8, 5)]
    grid = [[f"({a} + {b}*x1)*({c} + {e}*x2)" for c, e in v] for a, b in u]
    return make_skew_matrix([[compile_idrrsc(to_idrrsc(parse_expr(src)), F)
                              for src in row] for row in grid], F)


def _count_ranks_and_searches(monkeypatch):
    """Lists that fill with each rank_at call's dimension and each shrunk
    subspace search's (dimension, deficit, found)."""
    ranked, searched = [], []
    rank_at, finder = PencilOracle.rank_at, PencilOracle.shrunk_subspace

    def counted_rank(self, t):
        ranked.append(t.d)
        return rank_at(self, t)

    def counted_search(self, t, deficit=1):
        S = finder(self, t, deficit)
        searched.append((t.d, deficit, S is not None))
        return S
    monkeypatch.setattr(PencilOracle, "rank_at", counted_rank)
    monkeypatch.setattr(PencilOracle, "shrunk_subspace", counted_search)
    return ranked, searched


def test_a_certified_first_dimension_ranks_only_itself(monkeypatch):
    M = _uv_3x1()
    L = build_reduction_pencil(M)
    ranked, searched = _count_ranks_and_searches(monkeypatch)
    res = ncrank_pencil(L, RankParams(d_schedule=tuple(range(1, 7)), trials=8, seed=41))
    c = L.size - M.m + 1
    assert res.r == c and res.d == 1
    assert searched == [(1, 2, True)]          # core 12, rank 10 at d = 1
    assert ranked == [1]
    assert res.per_dim == tuple((d, c * d, c) for d in range(1, 7))


def test_full_rank_at_d_2_decides_only_its_multiples(monkeypatch):
    # the skew-symmetric grid has rank 2 at d = 1, where no subspace
    # certifies it, and full rank 3 at d = 2, which decides d = 4 and 6
    # but not 3 or 5
    M = _skew_of(SKEW3)
    ranked, searched = _count_ranks_and_searches(monkeypatch)
    res = ncrank_skew(M, RankParams(trials=8, seed=11))
    assert (res.r, res.d) == (M.m, 2)
    assert [(d, found) for d, _, found in searched] == [(1, False)]
    assert sorted(set(ranked)) == [1, 2, 3, 5]
    assert [rec for rec in res.per_dim if rec[0] % 2 == 0] == \
        [(2, 6, 3), (4, 12, 3), (6, 18, 3)]


def _without_search(rank, *args):
    """rank(*args) with PencilOracle.shrunk_subspace finding nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PencilOracle, "shrunk_subspace", lambda self, t, deficit=1: None)
        return rank(*args)


@settings(max_examples=40, deadline=None)
@given(planted_pencils((QQ,)), st.integers(1, 4), st.integers(0, 2 ** 16))
def test_rational_ncrank_is_the_same_without_the_search(L, trials, seed):
    # over Q the search runs sparse elimination in Fractions; a ceiling it
    # certifies must leave every field of the result as it was
    params = RankParams(d_schedule=(1, 2, 3), trials=trials, seed=seed)
    assert _outcome(ncrank_pencil, L, params) == \
        _without_search(_outcome, ncrank_pencil, L, params)


@pytest.mark.parametrize("seed", range(1, 4))
def test_rational_higman_rank_is_the_same_without_the_search(seed):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "data", "higman.skm")
    M = read_skew_file(path, QQ)
    params = RankParams(trials=8, seed=seed)
    assert ncrank_skew(M, params) == _without_search(ncrank_skew, M, params)
