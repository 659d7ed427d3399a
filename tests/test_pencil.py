import random

import pytest

import freepoly as fp
from conftest import random_formula, random_host_pencil, random_realized
from ncrat.circuit import (CircuitBuilder, Undefined, eval_circuit,
                           formula_to_abp, parse_expr, to_idrrsc)
from ncrat.field import (QQ, DenseMatrix, MatrixTuple, Singular, invert,
                         is_invertible, kron, prime_field, rank_of,
                         sample_tuple)
from ncrat.pencil import (DimensionMismatch, DisjointnessViolation,
                          PencilOracle, RealizedEntry, compile_idrrsc,
                          compose, dump_pencil, eval_pencil, from_abp,
                          parse_pencil, pencil_from_rows, realize_inverse)
from ncrat.rit import corpus
from reference import _invert_generic, _rank_generic, blowup_shift

F = prime_field()
HUA = "inv(x1 + x1*inv(x2)*x1) + inv(x1+x2) - inv(x1)"


def random_pencil(rng, size, nvars, density=0.6):
    rows = []
    for _ in range(nvars + 1):
        rows.append([[rng.randrange(F.p) if rng.random() < density else 0
                      for _ in range(size)] for _ in range(size)])
    return pencil_from_rows(F, rows)


# -- from_abp -------------------------------------------------------------------

def test_from_abp_single_variable_shape():
    e = from_abp(formula_to_abp(parse_expr("x1")), F)
    assert e.size == 2 and (e.row, e.col) == (1, 2)
    assert e.pencil.coeffs[0] == DenseMatrix.identity(F, 2)
    assert e.pencil.coeffs[1] == DenseMatrix.from_rows(F, [[0, -1], [0, 0]])
    t = sample_tuple(F, 1, 1, 3)
    assert e.value_at(t) == t.mats[0]


def test_from_abp_constant():
    e = from_abp(formula_to_abp(parse_expr("7")), F, nvars=1)
    t = sample_tuple(F, 1, 2, 0)
    assert e.value_at(t) == DenseMatrix.identity(F, 2).scale(7)


def test_from_abp_s4_matches_eval_poly(rng):
    s4 = fp.standard_polynomial(F, 4)
    b = CircuitBuilder()
    total = None
    from itertools import permutations
    for sigma in permutations((1, 2, 3, 4)):
        inv_count = sum(1 for i in range(4) for j in range(i + 1, 4)
                        if sigma[i] > sigma[j])
        prod = b.var(sigma[0])
        for k in sigma[1:]:
            prod = b.mul(prod, b.var(k))
        total = prod if total is None else \
            (b.add(total, prod) if inv_count % 2 == 0 else b.sub(total, prod))
    e = from_abp(formula_to_abp(b.build(total)), F)
    for _ in range(20):
        t = sample_tuple(F, 4, 3, rng)
        assert e.value_at(t) == fp.eval_poly(s4, t)


def test_from_abp_always_invertible(rng):
    for _ in range(20):
        c = random_formula(rng, nvars=2, height=0, size_budget=10)
        e = from_abp(formula_to_abp(c), F)
        t = sample_tuple(F, 2, rng.choice((1, 2, 3)), rng)
        ev = eval_pencil(e.pencil, t)
        assert rank_of(ev) == e.size * t.d


# -- eval_pencil -----------------------------------------------------------------

def test_eval_pencil_zero_tuple_gives_constant_block(rng):
    L = random_pencil(rng, 3, 2)
    zero = MatrixTuple(F, 2, (DenseMatrix.zeros(F, 2, 2),) * 2)
    assert eval_pencil(L, zero) == kron(L.coeffs[0], DenseMatrix.identity(F, 2))


def test_eval_pencil_scalars_reduce_to_substitution(rng):
    L = random_pencil(rng, 3, 2)
    t = sample_tuple(F, 2, 1, rng)
    direct = L.coeffs[0].add(L.coeffs[1].scale(t.mats[0].data[0])) \
        .add(L.coeffs[2].scale(t.mats[1].data[0]))
    assert eval_pencil(L, t) == direct


def test_eval_pencil_matches_generic_path(rng):
    # independent route: pure kron/add arithmetic
    for _ in range(5):
        L = random_pencil(rng, 3, 2)
        t = sample_tuple(F, 2, 2, rng)
        acc = kron(L.coeffs[0], DenseMatrix.identity(F, 2))
        for i in range(2):
            acc = acc.add(kron(L.coeffs[i + 1], t.mats[i]))
        assert eval_pencil(L, t) == acc


# -- realize_inverse ----------------------------------------------------------------

def test_realize_inverse_of_variable(rng):
    e = from_abp(formula_to_abp(parse_expr("x1")), F)
    ge = realize_inverse(e)
    assert ge.size == e.size + 1 and (ge.row, ge.col) == (e.size + 1, e.size + 1)
    for _ in range(20):
        t = sample_tuple(F, 1, 2, rng)
        if not is_invertible(t.mats[0]):
            continue
        assert ge.value_at(t) == _invert_generic(t.mats[0])


def test_realize_inverse_twice_restores_value(rng):
    e = from_abp(formula_to_abp(parse_expr("x1")), F)
    gg = realize_inverse(realize_inverse(e))
    for _ in range(5):
        t = sample_tuple(F, 1, 2, rng)
        if not is_invertible(t.mats[0]):
            continue
        assert gg.value_at(t) == t.mats[0]


def test_realize_inverse_singular_at_zero():
    e = from_abp(formula_to_abp(parse_expr("x1")), F)
    ge = realize_inverse(e)
    t = MatrixTuple(F, 1, (DenseMatrix.zeros(F, 1, 1),))
    ev = eval_pencil(ge.pencil, t)
    assert rank_of(ev) < ge.size


# -- compose ---------------------------------------------------------------------------

def test_compose_m_zero_returns_host(rng):
    L = random_pencil(rng, 3, 2)
    grid = compose(L, [], nx=2)
    assert grid.pencil is L and grid.offset == 0


def test_compose_dimension_mismatch(rng):
    L = random_pencil(rng, 2, 3)  # nvars 3, nx 2 -> m = 1
    with pytest.raises(DimensionMismatch):
        compose(L, [], nx=2)


def test_compose_rejects_shared_placeholder():
    rows0 = [[0, 0], [0, 0]]
    rowsx = [[0, 0], [0, 0]]
    rowsy = [[1, 0], [0, 1]]  # y occurs twice
    L = pencil_from_rows(F, [rows0, rowsx, rowsy])
    x_entry = from_abp(formula_to_abp(parse_expr("x1")), F)
    with pytest.raises(DisjointnessViolation):
        compose(L, [x_entry], nx=1)


def test_compose_scalar_host_inverts_inverse(rng):
    # host [y1] over (x1, y1): realized grid entry is (g^{-1})^{-1} = g = x1
    L = pencil_from_rows(F, [[[0]], [[0]], [[1]]])
    g = from_abp(formula_to_abp(parse_expr("x1")), F)
    grid = compose(L, [g], nx=1)
    assert grid.pencil.size == (g.size + 1) + 2 * 1 + 1
    done = 0
    for _ in range(40):
        t = sample_tuple(F, 1, rng.choice((1, 2)), rng)
        if not is_invertible(t.mats[0]):
            continue
        assert grid.entry(1, 1).value_at(t) == t.mats[0]
        done += 1
        if done == 20:
            break
    assert done == 20


def test_compose_two_route_equality(rng):
    # the two-route oracle on a modest batch (the acceptance suite scales it up)
    for _ in range(15):
        s = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        nx = 2
        gs = [random_realized(rng, max_size=5, nvars=nx) for _ in range(m)]
        L = random_host_pencil(rng, s, nx, m)
        grid = compose(L, gs, nx)
        assert grid.pencil.size == sum(g.size + 1 for g in gs) + 2 * s * s + s
        checked = 0
        for _ in range(200):
            if checked == 5:
                break
            t = sample_tuple(F, nx, 1, rng)
            direct = _direct_substitution(L, gs, nx, t)
            if direct is None:
                continue
            try:
                got = [[grid.entry(i + 1, j + 1).value_at(t).data[0]
                        for j in range(s)] for i in range(s)]
            except Singular:
                continue
            assert got == direct
            checked += 1
        assert checked == 5


def _direct_substitution(L, gs, nx, t):
    """Evaluate L at (t, g_1(t)^{-1}, ...) and invert; None when undefined."""
    vals = list(t.mats)
    for g in gs:
        try:
            v = g.value_at(t)
            vals.append(invert(v))
        except Singular:
            return None
    ext = MatrixTuple(t.field, t.d, tuple(vals))
    try:
        inv_full = invert(eval_pencil(L, ext))
    except Singular:
        return None
    return [[inv_full.at(i, j) for j in range(L.size)] for i in range(L.size)]


# -- compile ------------------------------------------------------------------------

def test_compile_height_zero_equals_from_abp(rng):
    c = parse_expr("x1*x2 - x2*x1")
    idr = to_idrrsc(c)
    direct = from_abp(idr.top, F, nvars=2)
    compiled = compile_idrrsc(idr, F)
    assert compiled.pencil.coeffs == direct.pencil.coeffs
    assert (compiled.row, compiled.col) == (direct.row, direct.col)


def test_compile_hua_realizes_zero(rng):
    e = compile_idrrsc(to_idrrsc(parse_expr(HUA)), F)
    checked = 0
    while checked < 20:
        t = sample_tuple(F, 2, rng.choice((1, 2, 3)), rng)
        try:
            v = e.value_at(t)
        except Singular:
            continue
        assert v.is_zero()
        checked += 1


def test_compile_sum_inverse_matches_invert(rng):
    e = compile_idrrsc(to_idrrsc(parse_expr("inv(x1 + x2)")), F)
    checked = 0
    while checked < 10:
        t = sample_tuple(F, 2, 2, rng)
        s = t.mats[0].add(t.mats[1])
        if not is_invertible(s):
            continue
        assert e.value_at(t) == _invert_generic(s)
        checked += 1


def test_compile_matches_eval_on_random_circuits(rng):
    for _ in range(10):
        c = random_formula(rng, nvars=2, height=rng.randrange(3), size_budget=9)
        e = compile_idrrsc(to_idrrsc(c), F)
        for _ in range(3):
            t = sample_tuple(F, 2, 2, rng)
            try:
                direct = eval_circuit(c, t)
            except Undefined:
                continue
            assert e.value_at(t) == direct


def test_compile_definedness_correspondence(rng):
    # pencil invertible at t <-> circuit defined at t
    for _ in range(10):
        c = random_formula(rng, nvars=2, height=rng.randrange(3), size_budget=9)
        e = compile_idrrsc(to_idrrsc(c), F)
        oracle = PencilOracle(e.pencil)
        for _ in range(6):
            t = sample_tuple(F, 2, rng.choice((1, 2)), rng)
            try:
                eval_circuit(c, t)
                defined = True
            except Undefined:
                defined = False
            assert oracle.is_invertible_at(t) == defined


def _compile_level_by_level(idr, field):
    """Reference compiler: each level is composed from its compiled subs, in
    post-order, one pencil per level."""
    done = []
    stack = [(idr, False)]
    while stack:
        node, subs_done = stack.pop()
        if not subs_done:
            stack.append((node, True))
            stack.extend((sub, False) for sub in reversed(node.subs))
            continue
        host = from_abp(node.top, field, nvars=node.nx + node.m)
        if node.m == 0:
            done.append(host)
            continue
        gs = done[len(done) - node.m:]
        del done[len(done) - node.m:]
        grid = compose(host.pencil, gs, node.nx)
        done.append(RealizedEntry(grid.pencil, grid.offset + host.row,
                                  grid.offset + host.col))
    return done.pop()


def _reference_formulas():
    rng = random.Random(0x1D7)
    circuits = [c for _, c, _ in corpus()]
    for height in range(5):
        for _ in range(20):
            circuits.append(random_formula(rng, nvars=3, height=height,
                                           size_budget=8 + 6 * height))
    return circuits


@pytest.mark.parametrize("field", [F, prime_field(7), QQ], ids=["M61", "F7", "Q"])
def test_compile_matches_level_by_level_reference(field):
    for c in _reference_formulas():
        idr = to_idrrsc(c)
        got, want = compile_idrrsc(idr, field), _compile_level_by_level(idr, field)
        assert got.pencil.entries == want.pencil.entries
        assert (got.row, got.col, got.size, got.nvars) == \
            (want.row, want.col, want.size, want.nvars)


# -- blowup_shift ----------------------------------------------------------------------

def test_blowup_shift_trivial(rng):
    L = random_pencil(rng, 3, 2)
    zero_shift = MatrixTuple(F, 1, tuple(DenseMatrix.zeros(F, 1, 1)
                                         for _ in range(2)))
    B = blowup_shift(L, 1, zero_shift)
    assert B.size == L.size and B.nvars == 2
    assert B.coeffs[0] == L.coeffs[0]
    assert B.coeffs[1] == L.coeffs[1] and B.coeffs[2] == L.coeffs[2]


def test_blowup_shift_size_example(rng):
    L = random_pencil(rng, 3, 2)
    shift = sample_tuple(F, 2, 2, rng)
    B = blowup_shift(L, 2, shift)
    assert B.size == 6 and B.nvars == 8


def test_blowup_shift_consistency(rng):
    # scalar z-values assembling matrices q: blown pencil at z equals the
    # original pencil at q + shift
    L = random_pencil(rng, 3, 2)
    m = 2
    shift = sample_tuple(F, 2, m, rng)
    B = blowup_shift(L, m, shift)
    for _ in range(20):
        q = sample_tuple(F, 2, m, rng)
        zvals = []
        for i in range(2):
            for j in range(m):
                for k in range(m):
                    zvals.append(DenseMatrix.from_rows(F, [[q.mats[i].at(j, k)]]))
        zt = MatrixTuple(F, 1, tuple(zvals))
        shifted = MatrixTuple(F, m, tuple(q.mats[i].add(shift.mats[i])
                                          for i in range(2)))
        assert eval_pencil(B, zt) == eval_pencil(L, shifted)


# -- structural oracle ----------------------------------------------------------------------

def test_oracle_rank_matches_plain_rank(rng):
    for _ in range(12):
        L = random_pencil(rng, rng.randrange(2, 7), 2, density=0.5)
        oracle = PencilOracle(L)
        for d in (1, 2):
            t = sample_tuple(F, 2, d, rng)
            assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t))


def test_oracle_on_compiled_pencil(rng):
    e = compile_idrrsc(to_idrrsc(parse_expr(HUA)), F)
    oracle = PencilOracle(e.pencil)
    assert oracle.base + oracle.core_size == e.size
    assert oracle.core_size < e.size // 2
    for d in (1, 2):
        t = sample_tuple(F, 2, d, rng)
        assert oracle.rank_at(t) == _rank_generic(eval_pencil(e.pencil, t))


def test_oracle_stress_structured(rng):
    # adversarial structures: constant rows/columns, zero rows, duplicate
    # rows, identity padding, and their interaction with variable entries
    for trial in range(30):
        size = rng.randrange(2, 9)
        L = random_pencil(rng, size, 2, density=rng.choice((0.2, 0.5, 0.9)))
        rows = [list(m.to_lists()) for m in L.coeffs]
        for _ in range(rng.randrange(3)):
            r = rng.randrange(size)
            kind = rng.randrange(4)
            if kind == 0:        # make row r constant
                for k in (1, 2):
                    rows[k][r] = [0] * size
            elif kind == 1:      # zero row
                for k in range(3):
                    rows[k][r] = [0] * size
            elif kind == 2:      # duplicate another row
                r2 = rng.randrange(size)
                for k in range(3):
                    rows[k][r] = list(rows[k][r2])
            else:                # unit row
                for k in range(3):
                    rows[k][r] = [0] * size
                rows[0][r][rng.randrange(size)] = 1
        L = pencil_from_rows(F, rows)
        oracle = PencilOracle(L)
        assert oracle.base + oracle.core_size == size
        for d in (1, 2, 3):
            t = sample_tuple(F, 2, d, rng)
            assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t)), trial


def test_oracle_column_pivots(rng):
    # every row carries a variable, so only constant-column pivots apply:
    # [[x, 1], [y, 2]] reduces through column 2 to the single entry y - 2x
    rows0 = [[0, 1], [0, 2]]
    rowsx = [[1, 0], [0, 0]]
    rowsy = [[0, 0], [1, 0]]
    L = pencil_from_rows(F, [rows0, rowsx, rowsy])
    oracle = PencilOracle(L)
    assert oracle.base == 1 and oracle.core_size == 1
    for d in (1, 2, 3):
        for _ in range(5):
            t = sample_tuple(F, 2, d, rng)
            assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t))


def test_oracle_stress_transposed_structures(rng):
    # transposes of the row-structured instances force the column branch
    for trial in range(15):
        size = rng.randrange(2, 7)
        L = random_pencil(rng, size, 2, density=0.4)
        rows = [m.to_lists() for m in L.coeffs]
        for _ in range(rng.randrange(1, 3)):
            r = rng.randrange(size)
            for k in (1, 2):
                rows[k][r] = [0] * size
        transposed = [[[rows[k][j][i] for j in range(size)]
                       for i in range(size)] for k in range(3)]
        L = pencil_from_rows(F, transposed)
        oracle = PencilOracle(L)
        for d in (1, 2):
            t = sample_tuple(F, 2, d, rng)
            assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t)), trial


def test_oracle_rational_field(rng):
    from ncrat.field import QQ
    rows0 = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    rowsx = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    L = pencil_from_rows(QQ, [rows0, rowsx])
    oracle = PencilOracle(L)
    t = MatrixTuple(QQ, 1, (DenseMatrix.from_rows(QQ, [[5]]),))
    assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t)) == 3


def test_oracle_generic_field_path(rng):
    from ncrat.field import PrimeField
    SMALLF = PrimeField(2 ** 61 + 15)  # prime, outside the dense kernel's primes
    rows0 = [[1, 0], [0, 1]]
    rowsx = [[0, 1], [1, 0]]
    L = pencil_from_rows(SMALLF, [rows0, rowsx])
    oracle = PencilOracle(L)
    t = sample_tuple(SMALLF, 1, 2, rng)
    assert oracle.rank_at(t) == _rank_generic(eval_pencil(L, t))


# -- pencil files ------------------------------------------------------------------------------

def test_pencil_file_round_trip(rng):
    e = compile_idrrsc(to_idrrsc(parse_expr("x1*inv(x2)*x1")), F)
    text = dump_pencil(e.pencil, realize=(e.row, e.col))
    L, realize = parse_pencil(text)
    assert realize == (e.row, e.col)
    assert L.coeffs == e.pencil.coeffs
    t = sample_tuple(F, 2, 2, rng)
    assert eval_pencil(L, t) == eval_pencil(e.pencil, t)


def test_pencil_file_rejects_bad_headers():
    with pytest.raises(ValueError):
        parse_pencil("size 2\nnvars 0\ncoeff 0\nend\n")


HEAD = "field prime 7\nsize 2\nnvars 0\n"


@pytest.mark.parametrize("text,where", [
    ("", "line 1"),
    ("field prime 7\n", "line 2"),
    ("field prime 7\nsize 2\n", "line 3"),
    ("field prime 7\nsize\nnvars 0\n", "line 2"),
    ("field prime 8\nsize 2\nnvars 0\n", "line 1"),
    (HEAD + "coeff 0\n1 3 5\nend\n", "line 5"),          # column past size
    (HEAD + "coeff 0\n0 1 4\nend\n", "line 5"),          # row below 1
    (HEAD + "coeff 0\n1 1\nend\n", "line 5"),            # short triplet
    (HEAD + "coeff 0\n1 1 4\n", "line 6"),               # truncated block
    (HEAD + "coeff 1\nend\n", "line 4"),                 # coefficient past nvars
    (HEAD + "coeff 0\n1 1 1/7\nend\n", "line 5"),        # zero denominator mod 7
    (HEAD + "realize 1 3\n", "line 4"),
])
def test_pencil_file_errors_name_the_line(text, where):
    with pytest.raises(ValueError, match=f"^{where}: "):
        parse_pencil(text)
