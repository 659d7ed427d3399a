import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freepoly as fp
from ncrat.field import DenseMatrix, MatrixTuple, prime_field, sample_tuple

F = prime_field()

words = st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple)
polys = st.dictionaries(words, st.integers(min_value=0, max_value=F.p - 1),
                        max_size=4).map(lambda t: fp.NcPoly(F, t))


def x(i):
    return fp.NcPoly.var(F, i)


def test_mul_is_noncommutative():
    f = fp.sub(fp.mul(x(1), x(2)), fp.mul(x(2), x(1)))
    assert f.terms == {(1, 2): 1, (2, 1): F.p - 1}


def test_add_cancels():
    f = fp.mul(x(1), x(2))
    assert fp.add(f, fp.scale(-1, f)).is_zero()


def test_standard_polynomial_s4_term_count():
    s4 = fp.standard_polynomial(F, 4)
    assert len(s4.terms) == 24
    # oracle: enumerate permutations with a transposition-count sign
    expected = {}
    for sigma in permutations((1, 2, 3, 4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if sigma[i] > sigma[j])
        expected[sigma] = 1 if inv % 2 == 0 else F.p - 1
    assert s4.terms == expected


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_free_algebra_axioms(f, g, h):
    assert fp.add(f, g) == fp.add(g, f)
    assert fp.mul(fp.mul(f, g), h) == fp.mul(f, fp.mul(g, h))
    assert fp.mul(f, fp.add(g, h)) == fp.add(fp.mul(f, g), fp.mul(f, h))
    assert fp.add(f, fp.neg(f)).is_zero()


def test_coeff_of():
    f = fp.sub(fp.mul(x(1), x(2)), fp.mul(x(2), x(1)))
    assert fp.coeff_of(f, (1, 2)) == 1
    assert fp.coeff_of(f, (2, 1)) == F.p - 1
    assert fp.coeff_of(f, (1, 1)) == 0
    g = fp.add(fp.NcPoly.const(F, 5), x(1))
    assert fp.coeff_of(g, ()) == 5


def test_poly_arith_dispatch():
    f = fp.poly_arith("add", x(1), x(2))
    assert fp.poly_arith("scale", f, 2).terms == {(1,): 2, (2,): 2}
    assert fp.poly_arith("mul", x(1), x(1)).terms == {(1, 1): 1}
    with pytest.raises(ValueError):
        fp.poly_arith("pow", x(1), x(1))


def test_eval_commutator_on_scalars():
    f = fp.sub(fp.mul(x(1), x(2)), fp.mul(x(2), x(1)))
    t = sample_tuple(F, 2, 1, 3)
    assert fp.eval_poly(f, t).is_zero()


def test_eval_commutator_on_unit_matrices():
    e12 = DenseMatrix.from_rows(F, [[0, 1], [0, 0]])
    e21 = DenseMatrix.from_rows(F, [[0, 0], [1, 0]])
    t = MatrixTuple(F, 2, (e12, e21))
    f = fp.sub(fp.mul(x(1), x(2)), fp.mul(x(2), x(1)))
    out = fp.eval_poly(f, t)
    assert out == DenseMatrix.from_rows(F, [[1, 0], [0, F.p - 1]])


def test_amitsur_levitzki_behavior():
    s4 = fp.standard_polynomial(F, 4)
    rng = random.Random(5)
    for _ in range(50):
        t = sample_tuple(F, 4, 2, rng)
        assert fp.eval_poly(s4, t).is_zero()
    hit = False
    for _ in range(20):
        t = sample_tuple(F, 4, 3, rng)
        if not fp.eval_poly(s4, t).is_zero():
            hit = True
            break
    assert hit


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(10):
        t = sample_tuple(F, 3, 2, rng)
        f = _random_poly(rng)
        g = _random_poly(rng)
        lhs = fp.eval_poly(fp.mul(f, g), t)
        rhs = fp.eval_poly(f, t).matmul(fp.eval_poly(g, t))
        assert lhs == rhs
        assert fp.eval_poly(fp.add(f, g), t) == \
            fp.eval_poly(f, t).add(fp.eval_poly(g, t))


def _random_poly(rng, nvars=3, terms=4, deg=3):
    out = {}
    for _ in range(terms):
        w = tuple(rng.randrange(1, nvars + 1) for _ in range(rng.randrange(deg + 1)))
        out[w] = rng.randrange(1, F.p)
    return fp.NcPoly(F, out)


def test_eval_multiplication_budget():
    # the evaluation loop performs at most (#terms x max word length) matrix
    # products; asserted through the instrumentation counter
    rng = random.Random(2)
    f = _random_poly(rng, nvars=2, terms=6, deg=4)
    t = sample_tuple(F, 2, 2, rng)
    counter = [0]
    fp.eval_poly(f, t, counter)
    budget = len(f.terms) * max(len(w) for w in f.terms)
    assert counter[0] <= budget


def test_nvars_guard():
    f = x(3)
    t = sample_tuple(F, 2, 1, 0)
    with pytest.raises(ValueError):
        fp.eval_poly(f, t)
