import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from conftest import random_formula
from hypothesis import strategies as st

from ncrat.circuit import (BlowupExceeded, Undefined, classify, eval_circuit,
                           parse_expr, to_idrrsc, transport_tuple,
                           variable_reduction)
from ncrat.field import (QQ, DenseMatrix, MatrixTuple, PrimeField, is_invertible,
                         prime_field, sample_tuple)
from ncrat.pencil import _reduce, compile_condensed, realize_inverse
from ncrat.rit import (RitParams, WitnessNotFound, _gate_oracle,
                       bootstrap_dimension, compile_circuit, corpus,
                       hitting_set_generate, rit_test, sparse_points,
                       strong_witness, verify_strong)

F = prime_field()
HUA = "inv(x1 + x1*inv(x2)*x1) + inv(x1+x2) - inv(x1)"


# -- rit_test ----------------------------------------------------------------------

def test_hua_is_zero():
    v = rit_test(parse_expr(HUA), F, RitParams(trials=6, dim_cap=4, seed=0))
    assert v.is_zero
    assert v.error_bound_num > 0 and v.error_bound_den == F.p


def test_inverse_sum_nonzero_scalar_witness():
    v = rit_test(parse_expr("inv(x1) + inv(x2)"), F,
                 RitParams(trials=6, seed=0))
    assert v.kind == "nonzero" and v.dimension == 1
    value = eval_circuit(parse_expr("inv(x1) + inv(x2)"), v.witness)
    assert is_invertible(value)


def test_commutator_inverse_needs_dimension_two():
    v = rit_test(parse_expr("inv(x1*x2 - x2*x1)"), F,
                 RitParams(trials=8, seed=1))
    assert v.kind == "nonzero" and v.dimension == 2


def test_verdicts_on_corpus_across_seeds():
    for seed in (0, 1):
        for name, circ, expect_zero in corpus():
            v = rit_test(circ, F, RitParams(trials=5, dim_cap=4, seed=seed))
            assert v.is_zero == expect_zero, name


def test_nonzero_witnesses_verify(rng):
    for name, circ, expect_zero in corpus():
        if expect_zero:
            continue
        v = rit_test(circ, F, RitParams(trials=6, dim_cap=4, seed=3))
        assert v.kind == "nonzero", name
        assert is_invertible(eval_circuit(circ, v.witness))
        assert v.dimension <= 2 * classify(circ).size


def test_compile_failed_propagates():
    from ncrat.circuit import CircuitBuilder
    b = CircuitBuilder()
    node = b.var(1)
    for _ in range(12):
        node = b.mul(node, node)
    c = b.build(node)
    with pytest.raises(BlowupExceeded):
        rit_test(c, F)


# -- strong_witness -----------------------------------------------------------------

def test_strong_witness_variable():
    w = strong_witness(parse_expr("x1"), F, RitParams(trials=4, seed=0))
    assert w.d == 1 and not w.mats[0].is_zero()


def test_strong_witness_zero_circuit_fails():
    with pytest.raises(WitnessNotFound):
        strong_witness(parse_expr(HUA), F, RitParams(trials=4, dim_cap=3, seed=0))


def test_strong_witness_corpus_dimension_bound():
    for name, circ, expect_zero in corpus():
        if expect_zero:
            continue
        w = strong_witness(circ, F, RitParams(trials=6, dim_cap=4, seed=5))
        assert w.d <= 2 * classify(circ).size
        assert is_invertible(eval_circuit(circ, w))


def test_rit_then_strong_witness_compiles_once(monkeypatch):
    # the gate oracle is rit's one compile cache; a witness request after a
    # test of the same circuit reuses it
    from ncrat import rit
    calls = []

    def counted(idr, field):
        calls.append(idr)
        return compile_condensed(idr, field)
    monkeypatch.setattr(rit, "compile_condensed", counted)
    rit._gate_oracle.cache_clear()
    circ = parse_expr("inv(x1 + inv(x2))*x3")
    params = RitParams(trials=4, seed=0)
    assert rit_test(circ, F, params).kind == "nonzero"
    strong_witness(circ, F, params)
    assert len(calls) == 1


@pytest.mark.parametrize("field", [F, prime_field(101), QQ], ids=["M61", "F101", "Q"])
def test_gate_is_invertible_wherever_the_value_is(field):
    # rit_test evaluates first and asks the gate only on a miss: that gives
    # its old verdicts only if the gate is invertible at every tuple where
    # the circuit is defined with an invertible value
    rng = random.Random(0x6A7E)
    circuits = [c for _, c, _ in corpus()]
    circuits += [random_formula(rng, 3, h, 8) for h in (0, 1, 2) for _ in range(8)]
    hits = 0
    for c in circuits:
        oracle = _gate_oracle(c, field)
        for d in (1, 2):
            for _ in range(3):
                t = sample_tuple(field, max(c.nvars, 1), d, rng)
                try:
                    value = eval_circuit(c, t)
                except Undefined:
                    continue
                if is_invertible(value):
                    hits += 1
                    assert oracle.is_invertible_at(t)
    assert hits > len(circuits)


def test_a_hit_at_the_first_trial_leaves_the_gate_unreduced(monkeypatch):
    from ncrat import pencil, rit
    reduced = []
    reduce = pencil._reduce

    def counted(L, keep=None):
        reduced.append(L.size)
        return reduce(L, keep)
    monkeypatch.setattr(pencil, "_reduce", counted)
    rit._gate_oracle.cache_clear()
    circ = parse_expr("inv(x1) + x2")
    v = rit_test(circ, F, RitParams(seed=0))
    assert v.kind == "nonzero" and v.trials_run == 1
    assert reduced == []
    oracle = _gate_oracle(circ, F)
    paper = realize_inverse(compile_circuit(circ, F)).pencil
    assert oracle.size == v.pencil_size == paper.size
    assert reduced == []


@pytest.mark.parametrize("first", ["base", "core"])
def test_the_gate_reduces_once_at_its_first_read(monkeypatch, first):
    from ncrat import pencil, rit
    circ = parse_expr("inv(x1 + x1*inv(x2)*x1) + x2")
    entry, pivoted = compile_condensed(to_idrrsc(circ), F)
    base, core, kept, full = _reduce(realize_inverse(entry).pencil)
    reduced = []
    reduce = pencil._reduce

    def counted(L, keep=None):
        reduced.append(L.size)
        return reduce(L, keep)
    monkeypatch.setattr(pencil, "_reduce", counted)
    rit._gate_oracle.cache_clear()
    oracle = _gate_oracle(circ, F)
    assert reduced == []
    getattr(oracle, first)
    assert len(reduced) == 1
    assert (oracle.base, oracle.core.size, oracle.core.entries, oracle.kept,
            oracle.invertible_everywhere) == (base + pivoted, core.size,
                                              core.entries, kept, full)
    t = sample_tuple(F, 2, 2, random.Random(1))
    oracle.rank_at(t)
    oracle.shrunk_subspace(t)
    assert len(reduced) == 1


# -- sparse points -------------------------------------------------------------------

def test_sparse_points_kappa_one():
    assert sparse_points(3, 1) == [[1, 1, 1]]


def test_sparse_points_example():
    assert sparse_points(2, 3) == [[1, 1], [2, 3], [4, 9]]


def test_sparse_points_hit_sparse_polynomials(rng):
    # brute-force oracle: every nonzero 3-sparse bivariate polynomial takes a
    # nonzero value at one of the points
    pts = sparse_points(2, 3)
    for _ in range(50):
        monos = set()
        while len(monos) < 3:
            monos.add((rng.randrange(4), rng.randrange(4)))
        coeffs = {mo: rng.choice((-3, -2, -1, 1, 2, 3)) for mo in monos}
        hit = False
        for (a, b) in pts:
            val = sum(c * a ** e1 * b ** e2 for (e1, e2), c in coeffs.items())
            if val != 0:
                hit = True
                break
        assert hit


def test_sparse_points_distinct_monomial_values(rng):
    # distinct monomials evaluate to distinct integers at the prime vector
    primes = [2, 3, 5]
    seen = {}
    for _ in range(100):
        mono = tuple(rng.randrange(5) for _ in range(3))
        val = 1
        for q, e in zip(primes, mono):
            val *= q ** e
        if mono in seen:
            assert seen[mono] == val
        else:
            assert val not in seen.values()
            seen[mono] = val


# -- hitting set ------------------------------------------------------------------------

def test_hitgen_trivial_point():
    hs = hitting_set_generate(2, 4, 0, 1, 1, F)
    assert len(hs.tuples) == 1
    t = hs.tuples[0]
    assert t.d == 1 and all(m.data[0] == 1 for m in t.mats)


def test_hitgen_default_kappa():
    hs = hitting_set_generate(1, 3, 0, 1, None, F)
    assert hs.kappa == 2 * 3 * 1 and len(hs.tuples) == hs.kappa


def _listmul(a: list, b: list) -> list:
    """a b for lists of rows of integers, written out here so that the
    expectations below share no product with the code under test."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transport_lists(qm: list, n: int) -> list:
    """p_i = sum_j q_j0 q_j1^i q_j0 for i = 1..n on lists of rows."""
    d = len(qm[0])
    out = []
    for i in range(1, n + 1):
        acc = [[0] * d for _ in range(d)]
        for q0, q1 in zip(qm[::2], qm[1::2]):
            pw = q1
            for _ in range(i - 1):
                pw = _listmul(pw, q1)
            term = _listmul(_listmul(q0, pw), q0)
            acc = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, term)]
        out.append(acc)
    return out


def test_hitgen_transport_structure():
    # each tuple satisfies p_i = sum_j q_j0 q_j1^i q_j0 for integer q blocks
    hs = hitting_set_generate(2, 4, 1, 2, 3, F)
    pts = sparse_points(2 * 2 * 2 * 2, 3)
    for t, pt in zip(hs.tuples, pts):
        qm = [[[pt[k * 4 + a * 2 + b] for b in range(2)] for a in range(2)]
              for k in range(4)]
        expect = [DenseMatrix.from_rows(F, acc) for acc in _transport_lists(qm, 2)]
        assert list(t.mats) == expect


def test_transport_tuple_over_q_keeps_fractions():
    # a Q witness transports to Fractions, the sums written out above
    q = sample_tuple(QQ, 4, 2, 3)
    q = MatrixTuple(QQ, 2, (q.mats[0].scale(Fraction(1, 3)),) + q.mats[1:])
    p = transport_tuple(q, n=3, h=1)
    assert all(type(x) is Fraction for m in p.mats for x in m.data)
    assert [m.to_lists() for m in p.mats] == \
        _transport_lists([m.to_lists() for m in q.mats], 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 1), st.integers(1, 3),
       st.integers(1, 4), st.sampled_from([7, 101, (1 << 31) - 1, (1 << 61) - 1]))
def test_hitgen_mod_p_is_the_exact_construction_reduced(n, s, h, d, kappa, p):
    # over F_p points and products are reduced as they are made; over Q the
    # same construction runs on exact integers and ends in Fractions
    Fp = PrimeField(p)
    exact = hitting_set_generate(n, s, h, d, kappa, QQ)
    reduced = hitting_set_generate(n, s, h, d, kappa, Fp)
    assert all(type(x) is Fraction for t in exact.tuples for m in t.mats for x in m.data)
    assert [[[Fp.normalize(x) for x in m.data] for m in t.mats] for t in exact.tuples] == \
        [[m.data for m in t.mats] for t in reduced.tuples]


def test_verify_strong_empty():
    hs = hitting_set_generate(1, 2, 0, 1, 2, F)
    rep = verify_strong(hs, [], F)
    assert rep.total == 0 and rep.hit_rate == 1.0


def test_verify_strong_single_variable():
    hs = hitting_set_generate(1, 2, 0, 1, 2, F)
    rep = verify_strong(hs, [("x1", parse_expr("x1"))], F)
    assert rep.hits == 1


# -- variable reduction interplay ----------------------------------------------------------

def test_reduction_preserves_verdicts_sample():
    for name, circ, expect_zero in corpus()[:8] + corpus()[-4:]:
        h = classify(circ).height
        red = variable_reduction(circ, h)
        v = rit_test(red, F, RitParams(trials=6, dim_cap=4, seed=7))
        assert v.is_zero == expect_zero, name


def test_reduction_witness_transports():
    circ = parse_expr("inv(x1*x2 - x2*x1)")
    h = classify(circ).height
    red = variable_reduction(circ, h)
    q = strong_witness(red, F, RitParams(trials=8, seed=9))
    p = transport_tuple(q, n=2, h=h)
    assert is_invertible(eval_circuit(circ, p))


# -- bootstrap ------------------------------------------------------------------------------

def test_bootstrap_commutator():
    rep = bootstrap_dimension(parse_expr("x1*x2 - x2*x1"), F,
                              schedule=(1, 2, 3), trials=16, seed=0)
    assert rep.height == 0
    assert rep.smallest_defined == 1
    assert rep.smallest_invertible == 2


def test_bootstrap_commutator_inverse():
    rep = bootstrap_dimension(parse_expr("inv(x1*x2 - x2*x1)"), F,
                              schedule=(1, 2, 3), trials=16, seed=0)
    assert rep.height == 1
    assert rep.smallest_invertible == 2


def test_bootstrap_single_variable():
    rep = bootstrap_dimension(parse_expr("x1"), F, schedule=(1, 2),
                              trials=8, seed=0)
    assert rep.smallest_defined == 1 and rep.smallest_invertible == 1


def test_bootstrap_series_route_runs():
    rep = bootstrap_dimension(parse_expr("x1*x2 - x2*x1"), F,
                              schedule=(1, 2), trials=12, seed=1)
    assert any(r.route == "series" for r in rep.rows)
    srow = next(r for r in rep.rows if r.route == "series")
    assert srow.truncation_nonzero is True
    assert srow.tau == 1  # polynomial series: no scaling needed
    # the folded-back point certifies nonzeroness at dimension d * d_z
    assert srow.assembled_nonzero is True
    assert srow.assembled_dim == srow.d * ((srow.series_size + 2) // 2)


def test_bootstrap_assembled_point_for_rational_member():
    rep = bootstrap_dimension(parse_expr("inv(x1 + x2)"), F,
                              schedule=(1,), trials=12, seed=4)
    row = rep.rows[0]
    assert row.route == "series" and row.truncation_nonzero
    assert row.assembled_nonzero is True


def test_bootstrap_constant_series_route():
    # no variables: the shift holds one padding matrix, and the series
    # gets one fresh variable per entry of it, which assemble_shift_point
    # folds back into a point at dimension d * d_z
    rep = bootstrap_dimension(parse_expr("2/3"), F, schedule=(1, 2, 3),
                              trials=4, seed=1)
    assert [r.route for r in rep.rows] == ["series"] * 3
    assert all(r.assembled_nonzero is True for r in rep.rows)
    assert rep.smallest_defined == rep.smallest_invertible == 1


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -2}, {"max_dim": 0},
                                    {"max_dim": -1}, {"dim_cap": 0}])
def test_rit_params_reject_non_positive_counts(kwargs):
    with pytest.raises(ValueError):
        RitParams(**kwargs)
