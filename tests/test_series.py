import random

import pytest

import freepoly as fp
from ncrat.field import (QQ, DenseMatrix, MatrixTuple, PrimeField, Singular,
                         invert, kron, prime_field, sample_tuple)
from ncrat.pencil import eval_pencil, pencil_from_rows
from ncrat.series import (FieldTooSmall, RecognizableSeries, scaling_search,
                          series_is_zero, shifted_entry_series, truncated_eval)
from reference import full_eval, scaling_scan, symbolic_truncation

F = prime_field()
F7 = PrimeField(7)


def geometric(field=F):
    c = DenseMatrix.from_rows(field, [[1]])
    b = DenseMatrix.from_rows(field, [[1]])
    M = pencil_from_rows(field, [[[0]], [[1]]])
    return RecognizableSeries(c, M, b)


def random_series(rng, size, nvars=2, field=F, force_zero=False):
    zero = DenseMatrix.zeros(field, size, size)
    if force_zero:
        # disjointly supported boundary vectors around a diagonal transition
        c = DenseMatrix.zeros(field, 1, size)
        b = DenseMatrix.zeros(field, size, 1)
        c.data[0] = field.one
        if size > 1:
            b.data[size - 1] = field.one
        coeffs = [zero]
        for _ in range(nvars):
            diag = DenseMatrix.zeros(field, size, size)
            for i in range(size):
                diag.data[i * size + i] = rng.randrange(field.p)
            coeffs.append(diag)
        return RecognizableSeries(
            c, pencil_from_rows(field, [m.to_lists() for m in coeffs]), b)
    c = DenseMatrix.random(field, 1, size, rng)
    b = DenseMatrix.random(field, size, 1, rng)
    coeffs = [zero]
    for _ in range(nvars):
        m = DenseMatrix.zeros(field, size, size)
        for i in range(size * size):
            if rng.random() < 0.5:
                m.data[i] = rng.randrange(field.p)
        coeffs.append(m)
    return RecognizableSeries(
        c, pencil_from_rows(field, [m.to_lists() for m in coeffs]), b)


def test_series_requires_homogeneous_transition():
    bad = pencil_from_rows(F, [[[1]], [[1]]])
    with pytest.raises(ValueError):
        RecognizableSeries(DenseMatrix.from_rows(F, [[1]]), bad,
                           DenseMatrix.from_rows(F, [[1]]))


# -- truncated_eval ---------------------------------------------------------------

def test_truncated_eval_k0_is_cb(rng):
    S = random_series(rng, 3)
    t = sample_tuple(F, 2, 2, rng)
    expect = kron(S.c.matmul(S.b), DenseMatrix.identity(F, 2))
    assert truncated_eval(S, 0, t) == expect


def test_truncated_eval_geometric():
    S = geometric()
    t = MatrixTuple(F, 1, (DenseMatrix.from_rows(F, [[2]]),))
    assert truncated_eval(S, 3, t).data[0] == 1 + 2 + 4 + 8


def test_truncated_eval_matches_symbolic_oracle(rng):
    for _ in range(20):
        size = rng.randrange(1, 4)
        S = random_series(rng, size)
        k = rng.randrange(0, 4)
        poly = symbolic_truncation(S, k)
        t = sample_tuple(F, 2, 2, rng)
        assert truncated_eval(S, k, t) == fp.eval_poly(poly, t)


def test_truncation_telescopes(rng):
    S = random_series(rng, 3)
    t = sample_tuple(F, 2, 2, rng)
    for k in range(3):
        diff = truncated_eval(S, k + 1, t).sub(truncated_eval(S, k, t))
        # independent route: c M^{k+1} b assembled directly
        Mt = eval_pencil(S.M, t)
        cb = kron(S.c, DenseMatrix.identity(F, 2))
        bb = kron(S.b, DenseMatrix.identity(F, 2))
        w = bb
        for _ in range(k + 1):
            w = Mt.matmul(w)
        assert diff == cb.matmul(w)


def test_degree2_truncation_coefficients(rng):
    # coefficients of the degree-2 truncation match the symbolic expansion of
    # c (I + M + M^2) b on a size-2 series
    S = random_series(rng, 2)
    poly = symbolic_truncation(S, 2)
    # manual expansion through freepoly matrix products
    f = F
    def entry_poly(i, j):
        terms = {}
        for v in (1, 2):
            cf = S.M.coeffs[v].at(i, j)
            if not f.is_zero(cf):
                terms[(v,)] = cf
        return fp.NcPoly(f, terms)
    Mp = [[entry_poly(i, j) for j in range(2)] for i in range(2)]
    acc = fp.NcPoly.zero(f)
    for i in range(2):
        for j in range(2):
            ci = fp.NcPoly.const(f, S.c.at(0, i))
            bj = fp.NcPoly.const(f, S.b.at(j, 0))
            term = fp.mul(ci, bj) if i == j else fp.NcPoly.zero(f)
            acc = fp.add(acc, term)
            acc = fp.add(acc, fp.mul(fp.mul(ci, Mp[i][j]), bj))
            for k in range(2):
                acc = fp.add(acc, fp.mul(fp.mul(ci, fp.mul(Mp[i][k], Mp[k][j])), bj))
    assert poly == acc


# -- series_is_zero -----------------------------------------------------------------

def test_zero_boundary_gives_zero(rng):
    S = random_series(rng, 3)
    zs = RecognizableSeries(DenseMatrix.zeros(F, 1, 3), S.M, S.b)
    assert series_is_zero(zs).kind == "zero"


def test_geometric_is_nonzero():
    v = series_is_zero(geometric())
    assert v.kind == "nonzero" and v.witness is not None and v.witness.d == 1


def test_verdict_matches_symbolic_oracle(rng):
    for i in range(25):
        size = rng.randrange(1, 5)
        force = rng.random() < 0.3
        S = random_series(rng, size, force_zero=force)
        verdict = series_is_zero(S, trials=12, seed=i)
        truly_zero = symbolic_truncation(S, size - 1).is_zero()
        assert verdict.kind == ("zero" if truly_zero else "nonzero")


@pytest.mark.parametrize("trials", [0, -1])
def test_zero_test_rejects_non_positive_trials(trials):
    # a Zero verdict from no trial would claim what nothing tested
    with pytest.raises(ValueError, match="trials must be at least 1"):
        series_is_zero(geometric(), trials=trials)


def test_zero_test_dimension():
    S = geometric()
    assert series_is_zero(S).dimension == 1  # ceil((1+1)/2)
    rng = random.Random(0)
    S4 = random_series(rng, 4)
    assert series_is_zero(S4).dimension == 3  # ceil(5/2)


# -- full_eval -----------------------------------------------------------------------

def test_full_eval_geometric_mod7():
    S = geometric(F7)
    t = MatrixTuple(F7, 1, (DenseMatrix.from_rows(F7, [[2]]),))
    assert full_eval(S, t).data[0] == 6  # (1-2)^{-1} = -1


def test_full_eval_singular_at_identity():
    S = geometric()
    t = MatrixTuple(F, 1, (DenseMatrix.from_rows(F, [[1]]),))
    with pytest.raises(Singular):
        full_eval(S, t)


def test_full_eval_nilpotent_equals_truncation(rng):
    # strictly upper triangular transition: nilpotent at every tuple
    size = 3
    coeffs = [DenseMatrix.zeros(F, size, size)]
    for _ in range(2):
        m = DenseMatrix.zeros(F, size, size)
        for i in range(size):
            for j in range(i + 1, size):
                m.data[i * size + j] = rng.randrange(F.p)
        coeffs.append(m)
    S = RecognizableSeries(DenseMatrix.random(F, 1, size, rng),
                           pencil_from_rows(F, [m.to_lists() for m in coeffs]),
                           DenseMatrix.random(F, size, 1, rng))
    t = sample_tuple(F, 2, 2, rng)
    assert full_eval(S, t) == truncated_eval(S, size * t.d, t)


def test_resolvent_identity(rng):
    S = random_series(rng, 3)
    for _ in range(10):
        t = sample_tuple(F, 2, 2, rng)
        Mt = eval_pencil(S.M, t)
        eye = DenseMatrix.identity(F, Mt.rows)
        try:
            res = invert(eye.sub(Mt))
        except Singular:
            continue
        assert eye.sub(Mt).matmul(res) == eye


# -- scaling_search ---------------------------------------------------------------------

def test_scaling_polynomial_series_tau_one(rng):
    # nilpotent transition: full value equals the truncation, tau = 1 works
    size = 2
    coeffs = [DenseMatrix.zeros(F, size, size)]
    m = DenseMatrix.zeros(F, size, size)
    m.data[1] = 1
    coeffs.append(m)
    S = RecognizableSeries(DenseMatrix.from_rows(F, [[1, 0]]),
                           pencil_from_rows(F, [m.to_lists() for m in coeffs]),
                           DenseMatrix.from_rows(F, [[0], [1]]))
    t = sample_tuple(F, 1, 1, rng)
    tau, value = scaling_search(S, t)
    assert tau == 1 and not value.is_zero()


def test_scaling_geometric_at_one():
    S = geometric()
    t = MatrixTuple(F, 1, (DenseMatrix.from_rows(F, [[1]]),))
    tau, value = scaling_search(S, t)
    assert tau == 2
    assert value.data[0] == F.p - 1  # (1 - 2)^{-1}


def test_scaling_requires_nonzero_truncation(rng):
    S = random_series(rng, 2)
    zs = RecognizableSeries(DenseMatrix.zeros(F, 1, 2), S.M, S.b)
    t = sample_tuple(F, 2, 1, rng)
    with pytest.raises(ValueError):
        scaling_search(zs, t)


def test_scaling_respects_scan_cap():
    # over F_3 the scan ends at p - 1 = 2 < 2sd = 4: M = diag(1, 2) x1 at
    # t = ([1]) makes I - tau M(t) singular at both tau = 1 and tau = 2
    F3 = PrimeField(3)
    S = RecognizableSeries(DenseMatrix.from_rows(F3, [[1, 1]]),
                           pencil_from_rows(F3, [[[0, 0], [0, 0]], [[1, 0], [0, 2]]]),
                           DenseMatrix.from_rows(F3, [[1], [1]]))
    t = MatrixTuple(F3, 1, (DenseMatrix.from_rows(F3, [[1]]),))
    with pytest.raises(FieldTooSmall):
        scaling_search(S, t)


def test_scaling_random_series_within_bound(rng):
    found = 0
    for i in range(30):
        size = rng.randrange(1, 5)
        S = random_series(rng, size)
        verdict = series_is_zero(S, trials=10, seed=100 + i)
        if verdict.kind != "nonzero":
            continue
        t = verdict.witness
        tau, value = scaling_search(S, t)
        assert not value.is_zero()
        assert tau <= size * t.d * size + 1
        found += 1
    assert found >= 20


def _small_series(rng, field, size, nvars):
    """Entries from small integers, zeros frequent, so that singular
    scalars, vanishing values and zero truncations all occur."""
    def draw(n):
        return [rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(n)]
    coeffs = [[[0] * size] * size] + [
        [draw(size) for _ in range(size)] for _ in range(nvars)]
    return RecognizableSeries(DenseMatrix.from_rows(field, [draw(size)]),
                              pencil_from_rows(field, coeffs),
                              DenseMatrix.from_rows(field, [[v] for v in draw(size)]))


def test_scaling_matches_brute_force_scan():
    # the first usable tau lies within 2sd whenever the value survives along
    # tau t; the scan stops there, or where a small field runs out first
    rng = random.Random(26)
    outcomes = {}
    for field in (QQ, F7, PrimeField(11), PrimeField(101), F):
        for _ in range(40):
            size, nvars, d = rng.randint(1, 4), rng.randint(1, 2), rng.randint(1, 2)
            S = _small_series(rng, field, size, nvars)
            if rng.random() < 0.5:
                t = sample_tuple(field, nvars, d, rng)
            else:
                t = MatrixTuple(field, d, tuple(
                    DenseMatrix.from_rows(field, [[rng.randint(-2, 2) for _ in range(d)]
                                                  for _ in range(d)])
                    for _ in range(nvars)))
            bound = 2 * size * d
            ref = scaling_scan(S, t, cap=bound + 8)
            nonzero = not fp.eval_poly(symbolic_truncation(S, size - 1), t).is_zero()
            if ref is not None and ref[0] <= bound:
                assert scaling_search(S, t) == ref
                outcome = "hit" if nonzero else "hit at a zero truncation"
            elif field.kind == "prime" and field.p - 1 < bound:
                with pytest.raises(FieldTooSmall):
                    scaling_search(S, t)
                outcome = "field too small"
            else:
                assert ref is None and not nonzero
                with pytest.raises(ValueError):
                    scaling_search(S, t)
                outcome = "no hit"
            outcomes.setdefault(outcome, set()).add(field)
    assert set(outcomes) == {"hit", "hit at a zero truncation",
                             "field too small", "no hit"}
    assert len(outcomes["hit"]) == 5


@pytest.mark.parametrize("field", (QQ, F), ids=("Q", "M61"))
def test_scaling_finds_tau_where_the_truncation_vanishes(field):
    # M = diag(x1, 0), c = b = e1 at x1 = -1: the truncation 1 + x1 is zero,
    # the value 1/(1 - x1) is 1/2 at tau = 1
    S = RecognizableSeries(DenseMatrix.from_rows(field, [[1, 0]]),
                           pencil_from_rows(field, [[[0, 0], [0, 0]],
                                                    [[1, 0], [0, 0]]]),
                           DenseMatrix.from_rows(field, [[1], [0]]))
    t = MatrixTuple(field, 1, (DenseMatrix.from_rows(field, [[-1]]),))
    assert truncated_eval(S, S.size - 1, t).is_zero()
    tau, value = scaling_search(S, t)
    assert tau == 1 and value.data == [field.inv(field.normalize(2))]


# -- shift expansion -----------------------------------------------------------------------

def test_assemble_shift_point_folds_back(rng):
    # the assembled point evaluates the pencil exactly as the blown series:
    # full series value at tau*Z equals the designated coordinate of the
    # entry's value block at the assembled tuple
    from ncrat.circuit import parse_expr, to_idrrsc
    from ncrat.pencil import compile_idrrsc
    from ncrat.series import assemble_shift_point
    entry = compile_idrrsc(to_idrrsc(parse_expr("x1*x2 + x1")), F)
    d = 2
    shift = sample_tuple(F, 2, d, rng)
    S = shifted_entry_series(entry, shift)
    for tau in (1, 3):
        z = sample_tuple(F, 2 * d * d, 2, rng)
        scaled = MatrixTuple(F, z.d, tuple(m.scale(tau) for m in z.mats))
        point = assemble_shift_point(shift, z, tau)
        assert point.d == d * z.d
        try:
            lhs = full_eval(S, scaled)
        except Singular:
            continue
        rhs = entry.value_at(point)
        assert lhs.data[0] == rhs.at(0, 0)


def test_shifted_entry_series_matches_entry(rng):
    from ncrat.circuit import parse_expr, to_idrrsc
    from ncrat.pencil import compile_idrrsc
    entry = compile_idrrsc(to_idrrsc(parse_expr("x1*x2 + x2")), F)
    d = 2
    shift = sample_tuple(F, 2, d, rng)
    S = shifted_entry_series(entry, shift)
    assert S.size == entry.size * d
    # full value of the series at scalar z assembling q equals the entry's
    # value block at q + shift
    for _ in range(5):
        q = sample_tuple(F, 2, d, rng)
        zvals = []
        for i in range(2):
            for a in range(d):
                for bcol in range(d):
                    zvals.append(DenseMatrix.from_rows(F, [[q.mats[i].at(a, bcol)]]))
        zt = MatrixTuple(F, 1, tuple(zvals))
        shifted = MatrixTuple(F, d, tuple(q.mats[i].add(shift.mats[i])
                                          for i in range(2)))
        try:
            lhs = full_eval(S, zt)
        except Singular:
            continue
        rhs = entry.value_at(shifted)
        assert lhs.data[0] == rhs.at(0, 0)


def test_rational_zero_bound_is_over_the_sampled_set():
    from ncrat.field import QQ
    # c M^k b = 0 for every word: M = x1 E_12 is nilpotent and c = e_2, b = e_1
    c = DenseMatrix.from_rows(QQ, [[0, 1]])
    b = DenseMatrix.from_rows(QQ, [[1], [0]])
    M = pencil_from_rows(QQ, [[[0, 0], [0, 0]], [[0, 1], [0, 0]]])
    v = series_is_zero(RecognizableSeries(c, M, b), trials=2)
    assert v.kind == "zero" and v.error_bound_den == QQ.sample_set_size() == 1 << 17
