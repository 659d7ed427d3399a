import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrat.field import (DEFAULT_PRIME, MERSENNE61, QQ, DenseMatrix,
                         MatrixTuple, PrimeField, Singular, _is_prime,
                         dump_tuple, invert, is_invertible, kron, parse_tuple,
                         prime_field, rank_of, sample_tuple, solve)
from reference import _invert_generic, _rank_generic, nullspace_sparse, row_basis

F = prime_field()
F101 = PrimeField(101)
F7 = PrimeField(7)


def rand_mat(field, r, c, rng):
    return DenseMatrix.random(field, r, c, rng)


# -- field scalar arithmetic -------------------------------------------------

scalars = st.integers(min_value=0, max_value=DEFAULT_PRIME - 1)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_prime_field_ring_axioms(a, b, c):
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0


@given(scalars.filter(lambda a: a != 0))
@settings(max_examples=40, deadline=None)
def test_prime_field_inverse(a):
    assert F.mul(a, F.inv(a)) == 1
    assert F.inv(a) == pow(a, F.p - 2, F.p)         # Fermat's value


@pytest.mark.parametrize("field", [F, F101, F7])
def test_prime_field_inverse_of_zero_is_singular(field):
    for a in (0, field.p, -2 * field.p):
        with pytest.raises(Singular):
            field.inv(a)


def test_rational_normalization():
    assert QQ.normalize(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-3, 7)) == Fraction(-7, 3)
    with pytest.raises(Singular):
        QQ.inv(Fraction(0))


def test_prime_field_parses_fractions():
    assert F7.parse("2/3") == F7.mul(2, F7.inv(3))


PSI12 = 318665857834031151167461        # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(2 ** 61 + 129)  # composite
    with pytest.raises(ValueError):
        PrimeField(91)
    # a strong pseudoprime to the 12 prime bases 2..37, caught by base 41
    assert PSI12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(PSI12)
    PrimeField(2 ** 61 + 15)  # prime, accepted
    PrimeField(PSI13 - 168)   # the largest prime below the bound, accepted
    # _is_prime is deterministic below the bound, and it finds no prime
    # between PSI13 - 168 and the bound
    assert not any(_is_prime(n) for n in range(PSI13 - 167, PSI13))
    # psi13 passes all 13 bases: from it on, the bases do not decide primality
    for p in (PSI13, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(PSI13)):
            PrimeField(p)


@given(scalars, scalars)
@settings(max_examples=200, deadline=None)
def test_mersenne_kernel_matches_python(a, b):
    import numpy as np
    from ncrat._modnum import mul_mod
    got = mul_mod(np.uint64(a), np.uint64(b), DEFAULT_PRIME)
    assert int(got) == (a * b) % DEFAULT_PRIME


# -- kron ---------------------------------------------------------------------

def test_kron_identity_case(rng):
    b = rand_mat(F, 3, 3, rng)
    assert kron(DenseMatrix.identity(F, 1), b) == b


def test_kron_unit_matrices():
    e11 = DenseMatrix.from_rows(F, [[1, 0], [0, 0]])
    out = kron(e11, e11)
    expect = DenseMatrix.zeros(F, 4, 4)
    expect.data[0] = 1
    assert out == expect


def test_kron_rank_multiplicative(rng):
    for _ in range(10):
        a = rand_mat(F101, 3, 3, rng)
        b = rand_mat(F101, 3, 3, rng)
        assert rank_of(kron(a, b)) == rank_of(a) * rank_of(b)


def test_kron_associative_and_bilinear(rng):
    for _ in range(5):
        a = rand_mat(F, 2, 3, rng)
        b = rand_mat(F, 2, 2, rng)
        c = rand_mat(F, 3, 2, rng)
        assert kron(kron(a, b), c) == kron(a, kron(b, c))
        a2 = rand_mat(F, 2, 3, rng)
        assert kron(a.add(a2), b) == kron(a, b).add(kron(a2, b))


def test_kron_block_structure(rng):
    a = rand_mat(F, 2, 2, rng)
    b = rand_mat(F, 3, 3, rng)
    out = kron(a, b)
    for i in range(2):
        for j in range(2):
            blk = b.scale(a.at(i, j))
            for bi in range(3):
                for bj in range(3):
                    assert out.at(i * 3 + bi, j * 3 + bj) == blk.at(bi, bj)


# -- rank ----------------------------------------------------------------------

def test_rank_zero_and_identity():
    assert rank_of(DenseMatrix.zeros(F, 4, 4)) == 0
    assert rank_of(DenseMatrix.identity(F, 5)) == 5


def test_rank_higman_linearization_at_2x2(rng):
    # [[1, x, 0], [y, z, x], [0, -y, 1]] evaluated at random 2x2 x, y, z
    for _ in range(5):
        x = rand_mat(F, 2, 2, rng)
        y = rand_mat(F, 2, 2, rng)
        z = rand_mat(F, 2, 2, rng)
        one = DenseMatrix.identity(F, 2)
        zero = DenseMatrix.zeros(F, 2, 2)
        rows = []
        blocks = [[one, x, zero], [y, z, x], [zero, y.neg(), one]]
        for bi in range(3):
            for r in range(2):
                row = []
                for bj in range(3):
                    row.extend(blocks[bi][bj].row(r))
                rows.append(row)
        m = DenseMatrix.from_rows(F, rows)
        assert rank_of(m) == 6


def test_rank_transpose_and_product_bound(rng):
    for _ in range(10):
        a = rand_mat(F101, 4, 3, rng)
        b = rand_mat(F101, 3, 4, rng)
        assert rank_of(a) == rank_of(a.transpose())
        assert rank_of(a.matmul(b)) <= min(rank_of(a), rank_of(b))


def test_rank_generic_matches_fast_path(rng):
    # same matrices through rank_sparse and the textbook elimination
    for _ in range(10):
        m = rand_mat(F, 5, 5, rng)
        if rng.random() < 0.5:
            m.data[3 * 5:4 * 5] = m.row(1)  # force a dependency
        assert rank_of(m) == _rank_generic(m)


@st.composite
def residue_stacks(draw):
    """(p, stack): B matrices of one shape over M61 or 2^31 - 1, each a
    product of planted rank with rows and columns zeroed and entries set
    to 0, 1 or p - 1."""
    import numpy as np
    p = draw(st.sampled_from([DEFAULT_PRIME, (1 << 31) - 1]))
    B = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    mats = []
    for _ in range(B):
        r = draw(st.integers(0, min(n, m)))
        seed = draw(st.integers(0, 2 ** 32))
        rng = random.Random(seed)
        u = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(r)] for _ in range(n)]
        v = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(m)] for _ in range(r)]
        a = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*v)] if r else [0] * m
             for row in u]
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            a[i] = [0] * m
        for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            for row in a:
                row[j] = 0
        for i, j, x in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                               st.integers(0, m - 1), entry), max_size=4)):
            a[i][j] = x
        mats.append(a)
    return p, np.array(mats, dtype=np.uint64).reshape(B, n, m)


@given(residue_stacks())
@settings(max_examples=80, deadline=None)
def test_rank_mod_matches_generic(case):
    # every matrix of the stack, through the blocked kernel and through
    # rank_of, which ranks these (at most 40 rows) by sparse elimination
    from ncrat._modnum import rank_mod
    p, stack = case
    Fp = PrimeField(p)
    B, n, m = stack.shape
    for a in stack:
        dense = DenseMatrix(Fp, n, m, a.ravel().tolist())
        expect = _rank_generic(dense)
        assert rank_mod(a, p) == expect
        assert rank_of(dense) == expect


@pytest.mark.parametrize("p", [DEFAULT_PRIME, (1 << 31) - 1])
def test_filled_matrix_rank_goes_through_the_dense_kernel(monkeypatch, p):
    # an 80 x 80 product of planted rank 61 fills in, so rank_sparse hands
    # the whole matrix to the blocked kernel before eliminating a column;
    # given a Record, it eliminates the same matrix sparse to the end
    from ncrat import _modnum
    from ncrat._sparse import Record, kernel, rank_sparse
    field, rng = PrimeField(p), random.Random(80)
    a = rand_mat(field, 80, 61, rng).matmul(rand_mat(field, 61, 80, rng))
    seen = []
    rank_rows = _modnum.rank_rows
    monkeypatch.setattr(_modnum, "rank_rows", lambda live, order, p:
                        seen.append((len(live), len(order))) or rank_rows(live, order, p))
    assert rank_of(a) == _rank_generic(a) == 61
    assert seen == [(80, 80)]

    def rows():
        return {i: {j: x for j, x in enumerate(a.row(i)) if x} for i in range(80)}
    record = Record()
    assert rank_sparse(rows(), p, record) == 61 and seen == [(80, 80)]
    assert len(record) == 61
    assert kernel(record, 80, p) == nullspace_sparse(rows(), 80, p)
    assert rank_sparse(rows(), p) == 61 and seen == [(80, 80)] * 2


@st.composite
def sparse_matrices(draw):
    """(p, n, m, rows): a planted-rank product of sparse factors as rows
    {i: {j: residue}}, some rows and columns emptied and some entries set to
    p - 1.  Over F_7 updates often cancel exactly."""
    p = draw(st.sampled_from([7, 101, (1 << 31) - 1, DEFAULT_PRIME, 2 ** 61 + 15]))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    r = draw(st.integers(0, min(n, m)))
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def factor(rows, cols):
        return [[rng.choice((1, p - 1, rng.randrange(p))) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]
    u, v = factor(n, r), factor(r, m)
    a = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*v)] if r else [0] * m
         for row in u]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        a[i] = [0] * m
    for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        for row in a:
            row[j] = 0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                              max_size=4)):
        a[i][j] = p - 1
    return p, n, m, a


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_sparse_matches_generic(case):
    from ncrat._sparse import rank_sparse
    p, n, m, a = case
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}
    expect = _rank_generic(DenseMatrix(PrimeField(p), n, m, [x for row in a for x in row]))
    assert rank_sparse(rows, p) == expect


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_and_row_basis_match_generic(case):
    # the kernel has m - rank vectors, each keyed by its pivotless column
    # (1 there, 0 at the other keys) and killed by every row; the row basis
    # has rank vectors and spans the rows
    p, n, m, a = case
    Fp = PrimeField(p)

    def rows():
        return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}

    def rank(vectors):
        return _rank_generic(DenseMatrix(Fp, len(vectors), m,
                                         [v.get(j, 0) for v in vectors for j in range(m)]))
    r = _rank_generic(DenseMatrix(Fp, n, m, [x for row in a for x in row]))
    kernel = nullspace_sparse(rows(), m, p)
    assert len(kernel) == m - r
    for f, x in kernel.items():
        assert all(x.get(g, 0) == (g == f) for g in kernel)
        assert all(sum(row[j] * v for j, v in x.items()) % p == 0 for row in a)
    assert rank(list(kernel.values())) == m - r
    basis = row_basis(rows(), p)
    assert len(basis) == r == rank(basis)
    assert rank(basis + [dict(enumerate(row)) for row in a]) == r
    assert _is_reduced(basis)


def _solves(rows, m, p, seed):
    """Check preimage on the matrix with rows {i: {j: value}} over m columns
    and characteristic p (0 for Q): each image M x0 gets an x with M x =
    M x0, and a random right-hand side gets None exactly when it raises the
    rank of [M | w]; and kernel agrees with nullspace_sparse."""
    from ncrat._sparse import Record, kernel, preimage, rank_sparse
    rng = random.Random(seed)
    field = PrimeField(p) if p else QQ

    def copy():
        return {i: dict(row) for i, row in rows.items()}

    def times(x):
        out = {}
        for i, row in rows.items():
            y = sum(v * x.get(j, 0) for j, v in row.items())
            if y % p if p else y:
                out[i] = y % p if p else y
        return out
    record = Record()
    rank = rank_sparse(copy(), p, record)
    assert kernel(record, m, p) == nullspace_sparse(copy(), m, p)
    for _ in range(3):
        w = times({j: field.rand(rng) for j in range(m) if rng.random() < 0.5})
        x = preimage(record, w, p)
        assert x is not None and times(x) == w
        w = {i: field.rand(rng) for i in rows if rng.random() < 0.3}
        w = {i: v for i, v in w.items() if v}
        grown = copy()
        for i, v in w.items():
            grown[i][m] = v
        x = preimage(record, w, p)
        assert (x is None) == (rank_sparse(grown, p) > rank)
        assert x is None or times(x) == w


@given(sparse_matrices(), st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_preimage_solves_exactly_the_images(case, seed):
    p, n, m, a = case
    _solves({i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)},
            m, p, seed)


def test_extend_basis_gives_the_row_basis_in_any_order():
    # the reduced echelon basis depends only on the span: rows added one at
    # a time, in any order, give row_basis's rows, over F_7, M61 and Q
    from ncrat._sparse import extend_basis
    rng = random.Random(3)
    for p in (7, MERSENNE61, 0):
        field = PrimeField(p) if p else QQ
        for _ in range(40):
            n, m = rng.randrange(1, 9), rng.randrange(1, 9)
            rows = {i: {j: field.rand(rng) for j in range(m) if rng.random() < 0.4}
                    for i in range(n)}
            rows = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
            expect = row_basis({i: dict(row) for i, row in rows.items()}, p)
            order = list(rows.values())
            rng.shuffle(order)
            basis: dict = {}
            added = [extend_basis(basis, dict(row), p) for row in order]
            assert [basis[c] for c in sorted(basis)] == expect
            assert sorted(c for c in added if c is not None) == sorted(basis)


@st.composite
def rational_matrices(draw):
    """(n, m, rows): a planted-rank product of sparse factors over Q, whose
    entries are small fractions, as rows {i: {j: Fraction}}, no zero stored."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(0, min(n, m)))
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def factor(rows, cols):
        return [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                 if rng.random() < density else Fraction(0)
                 for _ in range(cols)] for _ in range(rows)]
    u, v = factor(n, r), factor(r, m)
    a = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*v)]
         for row in u]
    return n, m, {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_sparse_routines_over_q_match_generic(case):
    # p = 0: the same elimination in Fractions, checked by exact sums
    from ncrat._sparse import rank_sparse
    n, m, rows = case

    def copy():
        return {i: dict(row) for i, row in rows.items()}

    def rank(vectors):
        return _rank_generic(DenseMatrix(QQ, len(vectors), m,
                                         [v.get(j, Fraction(0)) for v in vectors
                                          for j in range(m)]))
    r = rank(list(rows.values()))
    assert rank_sparse(copy(), 0) == r
    kernel = nullspace_sparse(copy(), m, 0)
    assert len(kernel) == m - r == rank(list(kernel.values()))
    for f, x in kernel.items():
        assert all(x.get(g, 0) == (g == f) for g in kernel)
        assert all(sum(row.get(j, 0) * v for j, v in x.items()) == 0
                   for row in rows.values())
    basis = row_basis(copy(), 0)
    assert len(basis) == r == rank(basis) == rank(basis + list(rows.values()))
    assert _is_reduced(basis)
    _solves(rows, m, 0, n * m)


def _is_reduced(basis):
    """Whether each vector is 1 at its first column and every other vector
    0 there: the reduced echelon form, which depends only on the span."""
    leads = [min(v) for v in basis]
    return all(v[j] == 1 and sum(j in w for w in basis) == 1
               for v, j in zip(basis, leads))


def test_q_and_unsupported_primes_never_reach_the_dense_kernel():
    # _modnum's limb arithmetic is exact only mod 2^61 - 1 and below 2^31
    from ncrat._sparse import fills, supported
    assert not supported(0) and not supported(2 ** 61 + 15) and not supported(1 << 31)
    assert supported(MERSENNE61) and supported(7) and supported((1 << 31) - 1)
    for p in (0, 2 ** 61 + 15):
        assert not fills(p, 64, 64, 64 * 64)
    assert fills(MERSENNE61, 64, 64, 64 * 64) and not fills(MERSENNE61, 63, 64, 63 * 64)


@pytest.mark.parametrize("p", [7, 101, (1 << 31) - 1, DEFAULT_PRIME])
def test_nullspace_and_row_basis_of_empty_matrices(p):
    assert nullspace_sparse({}, 0, p) == {} and row_basis({}, p) == []
    assert nullspace_sparse({0: {}, 1: {}}, 2, p) == {0: {0: 1}, 1: {1: 1}}
    assert row_basis({0: {}, 1: {}}, p) == []


@pytest.mark.parametrize("p", [DEFAULT_PRIME, (1 << 31) - 1])
@pytest.mark.parametrize("k,v", [(682, -1), (683, -1), (1401, -2)])
def test_matmul_mod_worst_case(p, k, v):
    # all operands p - 1 at the largest inner dimension one float64 limb
    # product takes (682) and one past it; and p - 2, whose odd limbs make
    # a limb sum over 1401 terms an odd integer above 2^53, which float64
    # cannot hold; then random operands
    import numpy as np
    from ncrat._modnum import matmul_mod
    a = np.full((2, 3, k), p + v, dtype=np.uint64)
    b = np.full((2, k, 4), p + v, dtype=np.uint64)
    assert matmul_mod(a, b, p).tolist() == [[[k * (p + v) ** 2 % p] * 4] * 3] * 2
    rng = random.Random(k)
    x = [[rng.randrange(p) for _ in range(k)] for _ in range(3)]
    y = [[rng.randrange(p) for _ in range(4)] for _ in range(k)]
    got = matmul_mod(np.array(x, dtype=np.uint64), np.array(y, dtype=np.uint64), p)
    assert got.tolist() == [[sum(s * t for s, t in zip(row, col)) % p for col in zip(*y)]
                            for row in x]


def test_rank_rational():
    m = DenseMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert rank_of(m) == 1


@pytest.mark.parametrize("field", [F, F7, QQ], ids=["M61", "F7", "Q"])
def test_a_scalar_is_invertible_where_its_rank_is_one(field, rng):
    # is_invertible reads a 1 x 1 matrix's one entry, where rit's trials at
    # dimension 1 land
    values = [field.zero, field.one, field.normalize(-1), field.normalize(Fraction(2, 3))]
    values += [field.rand(rng) for _ in range(30)]
    seen = set()
    for x in values:
        m = DenseMatrix(field, 1, 1, [x])
        assert is_invertible(m) == (rank_of(m) == 1), x
        seen.add(is_invertible(m))
    assert seen == {False, True}


# -- inverse ---------------------------------------------------------------------

def test_invert_identity():
    eye = DenseMatrix.identity(F, 4)
    assert invert(eye) == eye


def test_invert_diag_mod_7():
    m = DenseMatrix.from_rows(F7, [[2, 0], [0, 3]])
    assert invert(m) == DenseMatrix.from_rows(F7, [[4, 0], [0, 5]])


def test_invert_round_trip(rng):
    done = 0
    while done < 20:
        a = rand_mat(F, 4, 4, rng)
        if not is_invertible(a):
            continue
        assert invert(invert(a)) == a
        assert invert(a).matmul(a) == DenseMatrix.identity(F, 4)
        done += 1


def test_invert_fails_iff_rank_deficient(rng):
    a = rand_mat(F, 3, 3, rng)
    a.data[2 * 3:3 * 3] = a.row(0)
    assert rank_of(a) < 3
    with pytest.raises(Singular):
        invert(a)


def test_solve_matches_inverse(rng):
    for _ in range(5):
        a = rand_mat(F, 4, 4, rng)
        if not is_invertible(a):
            continue
        b = rand_mat(F, 4, 2, rng)
        assert solve(a, b) == _invert_generic(a).matmul(b)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([7, 101, (1 << 31) - 1, MERSENNE61, 2 ** 61 + 15, 0]),
       st.integers(1, 10), st.integers(0, 10), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_solve_matches_generic_inverse(p, n, rank, m, seed):
    # a has rank min(rank, n), planted as a product of n x k and k x n;
    # p = 0 is Q, which takes the same sparse elimination as every prime
    field, rng = PrimeField(p) if p else QQ, random.Random(seed)
    k = min(rank, n)
    a = rand_mat(field, n, k, rng).matmul(rand_mat(field, k, n, rng))
    b = rand_mat(field, n, m, rng)
    if _rank_generic(a) < n:
        with pytest.raises(Singular):
            solve(a, b)
    else:
        assert solve(a, b) == _invert_generic(a).matmul(b)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 101, (1 << 31) - 1, MERSENNE61]),
       st.one_of(st.sampled_from([1, 16, 17, 32, 33, 40]), st.integers(1, 40)),
       st.integers(0, 40), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_solve_mod_matches_generic_inverse(p, n, rank, m, seed):
    # a has rank min(rank, n), planted as a product of n x k and k x n;
    # m = 0 draws b = I, so the solution is the inverse itself
    import numpy as np

    from ncrat._modnum import solve_mod
    field, rng = PrimeField(p), random.Random(seed)
    k = min(rank, n)
    a = rand_mat(field, n, k, rng).matmul(rand_mat(field, k, n, rng))
    b = rand_mat(field, n, m, rng) if m else DenseMatrix.identity(field, n)
    got = solve_mod(*(np.array(x.data, dtype=np.uint64).reshape(x.rows, x.cols)
                      for x in (a, b)), p)
    try:
        expect = _invert_generic(a).matmul(b)
    except Singular:
        assert got is None
    else:
        assert got is not None and got.tolist() == expect.to_lists()


@pytest.mark.parametrize("p", [(1 << 31) - 1, MERSENNE61])
def test_dense_invert_goes_through_solve_mod(dense_route, p):
    field, rng = PrimeField(p), random.Random(64)
    a = rand_mat(field, 64, 64, rng)
    assert invert(a) == _invert_generic(a)
    a.data[64:128] = a.row(0)
    with pytest.raises(Singular):
        invert(a)
    assert dense_route == [(64, 64)] * 2


@pytest.mark.parametrize("p", [(1 << 31) - 1, MERSENNE61])
def test_dense_solve_goes_through_solve_mod(dense_route, p):
    field, rng = PrimeField(p), random.Random(65)
    a, b = rand_mat(field, 70, 70, rng), rand_mat(field, 70, 3, rng)
    assert solve(a, b) == _invert_generic(a).matmul(b)
    assert dense_route == [(70, 70)]


def test_invert_rational():
    m = DenseMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert invert(m).matmul(m) == DenseMatrix.identity(QQ, 2)


# -- sampling ---------------------------------------------------------------------

def test_sample_tuple_deterministic():
    t1 = sample_tuple(F, 2, 1, 7)
    t2 = sample_tuple(F, 2, 1, 7)
    assert t1.mats[0] == t2.mats[0] and t1.mats[1] == t2.mats[1]


def test_sample_tuple_distinct_seeds():
    differing = 0
    for seed in range(100):
        a = sample_tuple(F, 2, 2, seed)
        b = sample_tuple(F, 2, 2, seed + 1000)
        if any(x != y for x, y in zip(a.mats, b.mats)):
            differing += 1
    assert differing == 100


def test_tuple_validation():
    with pytest.raises(ValueError):
        MatrixTuple(F, 0, ())
    with pytest.raises(ValueError):
        MatrixTuple(F, 2, (DenseMatrix.zeros(F, 1, 1),))


# -- text format --------------------------------------------------------------------

def test_tuple_text_round_trip(rng):
    t = sample_tuple(F, 3, 2, rng)
    back = parse_tuple(dump_tuple(t))
    assert back.n == 3 and back.d == 2
    assert all(a == b for a, b in zip(back.mats, t.mats))


def test_tuple_text_round_trip_rational():
    m1 = DenseMatrix.from_rows(QQ, [[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    t = MatrixTuple(QQ, 2, (m1,))
    back = parse_tuple(dump_tuple(t))
    assert back.mats[0] == m1


def test_tuple_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tuple("nvars 2\ndim 1\n1\n2\n")


TUPLE_HEAD = "field prime 7\nnvars 1\ndim 2\n"


@pytest.mark.parametrize("text,where", [
    ("", "line 1"),
    ("field prime\n", "line 1"),                       # short field line
    ("field real\nnvars 0\ndim 1\n", "line 1"),
    ("field prime 8\nnvars 0\ndim 1\n", "line 1"),     # not prime
    ("field prime 7\n", "line 2"),                     # missing nvars
    ("field prime 7\nnvars 1\n", "line 3"),           # missing dim
    ("field prime 7\nnvars\ndim 1\n", "line 2"),       # short nvars line
    ("field prime 7\nnvars x\ndim 1\n", "line 2"),     # non-integer
    ("field prime 7\nnvars -1\ndim 1\n", "line 2"),
    ("field prime 7\nnvars 1\ndim 0\n", "line 3"),
    ("field prime 7\ndim 1\nnvars 1\n1\n", "line 2"),  # headers out of order
    (TUPLE_HEAD + "1 2\n", "line 5"),                   # too few rows
    (TUPLE_HEAD + "1 2\n3\n", "line 5"),               # short row
    (TUPLE_HEAD + "1 2\n3 4 5\n", "line 5"),           # long row
    (TUPLE_HEAD + "1 2\n3 4\n5 6\n", "line 6"),        # too many rows
    (TUPLE_HEAD + "1 2\n3 1/7\n", "line 5"),           # zero denominator mod 7
])
def test_tuple_file_errors_name_the_line(text, where):
    with pytest.raises(ValueError, match=f"^{where}: "):
        parse_tuple(text)


def test_tuple_file_skips_blank_lines():
    t = parse_tuple("\nfield prime 7\n\nnvars 1\ndim 2\n\n1 2\n\n3 4\n\n")
    assert t.n == 1
    assert t.mats[0] == DenseMatrix.from_rows(PrimeField(7), [[1, 2], [3, 4]])
