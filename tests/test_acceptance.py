"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here: field equalities are exact (tolerance
zero), rank identities are integer equalities, and the two timed
criteria assert their wall-clock budgets.
"""

import functools
import random
import time

from conftest import random_formula, random_host_pencil, random_realized
from ncrat.circuit import (Undefined, classify, eval_circuit, parse_expr,
                           transport_tuple, variable_reduction)
from ncrat.field import (DenseMatrix, MatrixTuple, Singular, invert,
                         is_invertible, prime_field, rank_of, sample_tuple)
from ncrat.pencil import (PencilOracle, compose, eval_pencil,
                          pencil_from_rows, realize_inverse)
from ncrat.rank import (RankParams, assemble_at, make_skew_matrix,
                        ncrank_pencil, ncrank_skew)
from ncrat.rit import (RitParams, compile_circuit, corpus,
                       hitting_set_generate, rit_test, strong_witness,
                       verify_strong)
from ncrat.series import RecognizableSeries, scaling_search, series_is_zero
from ncrat.pencil import compile_idrrsc
from ncrat.circuit import to_idrrsc
from reference import symbolic_truncation

F = prime_field()
HUA = "inv(x1 + x1*inv(x2)*x1) + inv(x1+x2) - inv(x1)"


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion(1, "hua-identity-zero-pencil-singular")
def test_c01_hua_identity():
    start = time.perf_counter()
    hua = parse_expr(HUA)
    verdict = rit_test(hua, F, RitParams(trials=4, dim_cap=4, seed=11))
    assert verdict.is_zero
    gate = realize_inverse(compile_circuit(hua, F))
    oracle = PencilOracle(gate.pencil)
    rng = random.Random(101)
    for d in range(1, 9):
        for _ in range(200):
            t = sample_tuple(F, 2, d, rng)
            assert not oracle.is_invertible_at(t)
    assert time.perf_counter() - start < 10.0


@criterion(2, "nonzero-corpus-witnesses-5-seeds")
def test_c02_nonzero_corpus():
    members = corpus()
    assert sum(1 for _, _, z in members if not z) >= 20
    for seed in range(5):
        for name, circ, expect_zero in members:
            v = rit_test(circ, F, RitParams(trials=5, dim_cap=4, seed=seed))
            assert v.is_zero == expect_zero, (name, seed)
            if not expect_zero:
                assert v.dimension <= 2 * classify(circ).size, name
                try:
                    value = eval_circuit(circ, v.witness)
                except Undefined:
                    raise AssertionError(f"witness not in domain: {name}")
                assert is_invertible(value), name


@criterion(3, "composition-lemma-oracle-100")
def test_c03_composition_oracle():
    rng = random.Random(33)
    for instance in range(100):
        s = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        nx = 2
        gs = [random_realized(rng, max_size=5, nvars=nx) for _ in range(m)]
        host = random_host_pencil(rng, s, nx, m)
        grid = compose(host, gs, nx)
        expected_size = sum(g.size for g in gs) + m + 2 * s * s + s
        assert grid.pencil.size == expected_size, instance
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 600:
            attempts += 1
            d = 2 if checked % 7 == 6 else 1
            t = sample_tuple(F, nx, d, rng)
            direct = _direct_grid(host, gs, nx, t)
            if direct is None:
                continue
            try:
                whole = invert(eval_pencil(grid.pencil, t))
            except Singular:
                continue
            off = grid.offset * d
            for i in range(s * d):
                for j in range(s * d):
                    assert whole.at(off + i, off + j) == direct.at(i, j), instance
            checked += 1
        assert checked == 20, f"instance {instance} found only {checked} points"


def _direct_grid(host, gs, nx, t):
    vals = list(t.mats)
    for g in gs:
        try:
            vals.append(invert(g.value_at(t)))
        except Singular:
            return None
    ext = MatrixTuple(t.field, t.d, tuple(vals))
    try:
        return invert(eval_pencil(host, ext))
    except Singular:
        return None


@criterion(4, "compiled-size-within-16-s-squared")
def test_c04_size_bound():
    worst = 0.0
    for name, circ, _ in corpus():
        entry = compile_circuit(circ, F)
        size = classify(circ).size
        worst = max(worst, entry.size / (size * size))
    print(f"  measured size constant C = {worst:.2f}")
    assert worst <= 16.0


@criterion(5, "definedness-invertibility-correspondence")
def test_c05_correspondence():
    rng = random.Random(55)
    for _ in range(50):
        circ = random_formula(rng, nvars=2, height=rng.randrange(3),
                              size_budget=9)
        entry = compile_circuit(circ, F)
        oracle = PencilOracle(entry.pencil)
        for _ in range(20):
            t = sample_tuple(F, 2, rng.choice((1, 2)), rng)
            try:
                eval_circuit(circ, t)
                defined = True
            except Undefined:
                defined = False
            assert oracle.is_invertible_at(t) == defined


@criterion(6, "rank-reduction-two-routes")
def test_c06_rank_reduction():
    rng = random.Random(66)

    def entry_of(expr):
        return compile_idrrsc(to_idrrsc(parse_expr(expr)), F)

    # named instances
    higman = make_skew_matrix(
        [[entry_of("1"), entry_of("x1")],
         [entry_of("x2"), entry_of("x3 + x1*x2")]], F)
    res = ncrank_skew(higman, RankParams(d_schedule=(1, 2), trials=8, seed=1))
    assert res.r == 2
    x = entry_of("x1")
    res = ncrank_skew(make_skew_matrix([[x, x], [x, x]], F),
                      RankParams(trials=8, seed=2))
    assert res.r == 1
    one = entry_of("1")
    for m in (1, 2, 3):
        grid = [[one if i == j else None for j in range(m)] for i in range(m)]
        res = ncrank_skew(make_skew_matrix(grid, F),
                          RankParams(trials=6, seed=3))
        assert res.r == m

    # random two-route agreement with exact witness certificates
    for seed in range(30):
        m = rng.randrange(1, 4)
        M = _random_skew(rng, m)
        assert M.common_size <= 6
        schedule = tuple(range(1, m + 3))
        res = ncrank_skew(M, RankParams(d_schedule=schedule, trials=10,
                                        seed=seed))
        assert rank_of(assemble_at(M, res.witness)) == res.r * res.d
        rng2 = random.Random(seed * 7 + 5)
        direct_best = 0
        for d in schedule:
            mx = 0
            for _ in range(10):
                t = sample_tuple(F, max(M.nvars, 1), d, rng2)
                try:
                    mx = max(mx, rank_of(assemble_at(M, t)))
                except Singular:
                    continue
            if mx % d == 0:
                direct_best = max(direct_best, mx // d)
        assert direct_best == res.r, seed


def _random_skew(rng, m):
    from ncrat.pencil import realize_inverse as rinv

    def entry_of(expr):
        return compile_idrrsc(to_idrrsc(parse_expr(expr)), F)

    def one_entry():
        kind = rng.randrange(5)
        if kind == 0:
            return None
        if kind == 1:
            return entry_of(str(rng.randrange(1, 9)))
        v1 = rng.randrange(1, 4)
        v2 = rng.randrange(1, 4)
        if kind == 2:
            return entry_of(f"x{v1}")
        if kind == 3:
            return entry_of(f"x{v1}*x{v2}")
        return rinv(entry_of(f"x{v1}"))

    return make_skew_matrix([[one_entry() for _ in range(m)] for _ in range(m)], F)


@criterion(7, "regularity-and-monotonicity")
def test_c07_regularity():
    rng = random.Random(77)
    total_trials = 0
    total_anomalies = 0
    for seed in range(20):
        size = rng.randrange(2, 7)
        L = _random_linear_pencil(rng, size, 2)
        params = RankParams(d_schedule=tuple(range(1, 7)), trials=16, seed=seed)
        res = ncrank_pencil(L, params)  # raises on an unresolved anomaly
        total_trials += 16 * 6
        total_anomalies += res.anomalies
        accepted = [acc for _, _, acc in res.per_dim if acc is not None]
        assert accepted == sorted(accepted), "r_d must be weakly increasing"
        for d, mx, acc in res.per_dim:
            if d >= 2 and acc is not None:
                assert mx % d == 0
    assert total_anomalies < 0.01 * total_trials


def _random_linear_pencil(rng, size, nvars):
    rows = []
    for _ in range(nvars + 1):
        rows.append([[rng.randrange(F.p) if rng.random() < 0.5 else 0
                      for _ in range(size)] for _ in range(size)])
    return pencil_from_rows(F, rows)


@criterion(8, "series-truncation-and-scaling")
def test_c08_series():
    rng = random.Random(88)
    scaled = 0
    for i in range(50):
        size = rng.randrange(1, 5)
        force_zero = rng.random() < 0.3
        S = _random_series(rng, size, force_zero)
        verdict = series_is_zero(S, trials=12, seed=i)
        truly_zero = symbolic_truncation(S, size - 1).is_zero()
        assert verdict.kind == ("zero" if truly_zero else "nonzero"), i
        if verdict.kind == "nonzero":
            t = verdict.witness
            tau, value = scaling_search(S, t)
            assert not value.is_zero()
            assert tau <= size * t.d * size + 1, (i, tau)
            scaled += 1
    assert scaled >= 25


def _random_series(rng, size, force_zero):
    zero = DenseMatrix.zeros(F, size, size)
    if force_zero:
        c = DenseMatrix.zeros(F, 1, size)
        b = DenseMatrix.zeros(F, size, 1)
        c.data[0] = 1
        if size > 1:
            b.data[size - 1] = 1
        coeffs = [zero]
        for _ in range(2):
            diag = DenseMatrix.zeros(F, size, size)
            for i in range(size):
                diag.data[i * size + i] = rng.randrange(F.p)
            coeffs.append(diag)
        return RecognizableSeries(
            c, pencil_from_rows(F, [m.to_lists() for m in coeffs]), b)
    c = DenseMatrix.random(F, 1, size, rng)
    b = DenseMatrix.random(F, size, 1, rng)
    coeffs = [zero]
    for _ in range(2):
        m = DenseMatrix.zeros(F, size, size)
        for i in range(size * size):
            if rng.random() < 0.5:
                m.data[i] = rng.randrange(F.p)
        coeffs.append(m)
    return RecognizableSeries(
        c, pencil_from_rows(F, [m.to_lists() for m in coeffs]), b)


@criterion(9, "variable-reduction-verdicts-and-transport")
def test_c09_variable_reduction():
    for name, circ, expect_zero in corpus():
        h = classify(circ).height
        reduced = variable_reduction(circ, h)
        v = rit_test(reduced, F, RitParams(trials=6, dim_cap=4, seed=9))
        assert v.is_zero == expect_zero, name
        if not expect_zero:
            q = strong_witness(reduced, F, RitParams(trials=8, dim_cap=4,
                                                     seed=19))
            p = transport_tuple(q, n=max(circ.nvars, 1), h=h)
            value = eval_circuit(circ, p)
            assert is_invertible(value), name


@criterion(10, "desk-scale-strong-hitting-set")
def test_c10_hitting_set():
    start = time.perf_counter()
    n, s, h, d = 3, 12, 1, 4
    hs = hitting_set_generate(n, s, h, d, kappa=None, field=F)
    assert hs.kappa == 2 * s * d
    members = [(name, circ, z) for name, circ, z in corpus()
               if circ.nvars <= n and classify(circ).size <= s
               and classify(circ).height <= h]
    nonzero = [(name, circ) for name, circ, z in members if not z]
    zero = [(name, circ) for name, circ, z in members if z]
    assert len(nonzero) >= 15 and len(zero) >= 4
    rep = verify_strong(hs, nonzero, F)
    misses = [label for label, hit in rep.results if hit is None]
    assert not misses, f"unhit nonzero members: {misses}"
    repz = verify_strong(hs, zero, F)
    assert all(hit is None for _, hit in repz.results)
    assert time.perf_counter() - start < 60.0
