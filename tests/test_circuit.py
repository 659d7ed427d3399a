import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freepoly as fp
from conftest import random_formula
from ncrat.circuit import (Abp, BlowupExceeded, CircuitBuilder, IdrCircuit,
                           ParseError, Undefined, classify, dump_circuit,
                           eval_circuit, formula_to_abp, parse_circuit,
                           parse_expr, to_idrrsc, transport_tuple,
                           variable_reduction)
from ncrat.field import (QQ, DenseMatrix, MatrixTuple, kron, prime_field,
                         sample_tuple)
from ncrat.pencil import compile_idrrsc, dump_pencil
from ncrat.rit import corpus
from reference import eval_abp, eval_idrrsc, expand_abp

F = prime_field()
HUA = "inv(x1 + x1*inv(x2)*x1) + inv(x1+x2) - inv(x1)"


# -- parsing -------------------------------------------------------------------

def test_parse_commutator_is_seven_nodes():
    c = parse_expr("x1*x2 - x2*x1")
    info = classify(c)
    assert info.size == 7 and info.height == 0 and info.is_formula


def test_parse_hua_height_two():
    info = classify(parse_expr(HUA))
    assert info.height == 2 and info.is_formula and not info.is_poly


def test_parse_double_inverse_height_two():
    c = parse_expr("inv(inv(x1))")
    assert classify(c).height == 2
    t = sample_tuple(F, 1, 1, 3)
    assert eval_circuit(c, t) == t.mats[0]


def test_parse_postfix_inverse_and_rationals():
    c = parse_expr("x1^-1 + 2/3")
    t = MatrixTuple(F, 1, (DenseMatrix.from_rows(F, [[2]]),))
    expect = F.add(F.inv(2), F.mul(2, F.inv(3)))
    assert eval_circuit(c, t).data[0] == expect


def test_parse_y_variables():
    c = parse_expr("y0_0 * y0_1 * y0_0")
    assert c.nvars == 2


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 + ")
    assert exc.value.pos == 5
    with pytest.raises(ParseError):
        parse_expr("x1 @ x2")
    with pytest.raises(ParseError):
        parse_expr("inv x1")
    with pytest.raises(ParseError):
        parse_expr("x0")  # variables are 1-based
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 + 1/0")
    assert exc.value.pos == 7


# -- evaluation ----------------------------------------------------------------

def test_eval_inverse_sum_at_ones():
    c = parse_expr("inv(x1) + inv(x2)")
    one = DenseMatrix.from_rows(F, [[1]])
    t = MatrixTuple(F, 1, (one, one))
    assert eval_circuit(c, t).data[0] == 2


def test_eval_hua_is_zero_where_defined(rng):
    c = parse_expr(HUA)
    checked = 0
    while checked < 10:
        t = sample_tuple(F, 2, rng.choice((1, 2, 3)), rng)
        try:
            v = eval_circuit(c, t)
        except Undefined:
            continue
        assert v.is_zero()
        checked += 1


def test_eval_undefined_at_zero():
    c = parse_expr("inv(x1)")
    t = MatrixTuple(F, 1, (DenseMatrix.zeros(F, 1, 1),))
    with pytest.raises(Undefined):
        eval_circuit(c, t)


# -- branching programs -----------------------------------------------------------

def test_abp_single_variable():
    a = formula_to_abp(parse_expr("x1"))
    assert a.depth == 1 and a.size == 2 and a.width == 1


def test_abp_matches_direct_eval(rng):
    c = parse_expr("x1*x2 + x2*x1")
    a = formula_to_abp(c)
    for _ in range(20):
        t = sample_tuple(F, 2, 2, rng)
        assert eval_abp(a, t) == eval_circuit(c, t)


def test_abp_random_formulas_match(rng):
    for _ in range(15):
        c = random_formula(rng, nvars=2, height=0, size_budget=10)
        a = formula_to_abp(c)
        for _ in range(3):
            t = sample_tuple(F, 2, 2, rng)
            assert eval_abp(a, t) == eval_circuit(c, t)


def test_abp_size_linear(rng):
    for _ in range(10):
        c = random_formula(rng, nvars=2, height=0, size_budget=14)
        a = formula_to_abp(c)
        assert a.size <= 3 * classify(c).size + 2


def test_abp_s4_expansion_matches_freepoly():
    # formula for the degree-4 standard polynomial, expanded symbolically
    terms = []
    from itertools import permutations
    b = CircuitBuilder()
    total = None
    for sigma in permutations((1, 2, 3, 4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if sigma[i] > sigma[j])
        prod = b.var(sigma[0])
        for k in sigma[1:]:
            prod = b.mul(prod, b.var(k))
        total = prod if total is None else \
            (b.add(total, prod) if inv % 2 == 0 else b.sub(total, prod))
    c = b.build(total)
    a = formula_to_abp(c)
    assert expand_abp(a, F) == fp.standard_polynomial(F, 4)


def test_abp_stores_no_empty_form():
    # x1 - x1 cancels on the one edge of a one-layer sum, and 0 is no edge
    assert formula_to_abp(parse_expr("x1 - x1 + 0")) == \
        Abp(layers=({},), widths=(1, 1), nvars=0)


def test_abp_rejects_inverses():
    with pytest.raises(ValueError):
        formula_to_abp(parse_expr("inv(x1)"))


# -- inversely disjoint normalization -----------------------------------------------

def test_to_idrrsc_height_zero():
    idr = to_idrrsc(parse_expr("x1*x2 - x2*x1"))
    assert idr.m == 0 and idr.height == 0


def test_to_idrrsc_hua_structure():
    idr = to_idrrsc(parse_expr(HUA))
    assert idr.m == 3
    assert sorted(s.height for s in idr.subs) == [0, 0, 1]
    assert idr.height == 2


def test_to_idrrsc_sandwich():
    idr = to_idrrsc(parse_expr("x1*inv(x2)*x1"))
    assert idr.m == 1 and idr.subs[0].height == 0
    # top evaluates x1 * y * x1
    t = sample_tuple(F, 3, 2, 4)
    ext = MatrixTuple(F, 2, (t.mats[0], t.mats[1], t.mats[2]))
    got = eval_abp(idr.top, ext)
    assert got == t.mats[0].matmul(t.mats[2]).matmul(t.mats[0])


def test_eval_idrrsc_agrees_with_circuit(rng):
    for _ in range(10):
        c = random_formula(rng, nvars=2, height=rng.randrange(3), size_budget=10)
        idr = to_idrrsc(c)
        for _ in range(4):
            t = sample_tuple(F, 2, 2, rng)
            try:
                direct = eval_circuit(c, t)
            except Undefined:
                direct = None
            try:
                via = eval_idrrsc(idr, t)
            except Undefined:
                via = None
            assert (direct is None) == (via is None)
            if direct is not None:
                assert direct == via


def test_to_idrrsc_blowup_cap():
    # chain of squarings shared as a DAG: tree expansion is exponential
    b = CircuitBuilder()
    node = b.var(1)
    for _ in range(12):
        node = b.mul(node, node)
    c = b.build(node)
    with pytest.raises(BlowupExceeded):
        to_idrrsc(c)


def test_to_idrrsc_modest_sharing_is_duplicated():
    b = CircuitBuilder()
    x = b.var(1)
    sq = b.mul(x, x)
    c = b.build(b.add(sq, sq))
    idr = to_idrrsc(c)
    t = sample_tuple(F, 1, 2, 9)
    assert eval_idrrsc(idr, t) == eval_circuit(c, t)


def _idr(nvars, layers, *subs):
    """An IdrCircuit over x1, x2 whose top has the given layers, written
    dense as lists of rows of forms {var: int}, {} where there is no edge."""
    top = tuple({(i, j): {k: Fraction(v) for k, v in f.items()}
                 for i, row in enumerate(m) for j, f in enumerate(row) if f}
                for m in layers)
    widths = (1,) + tuple(len(m[0]) for m in layers)
    return IdrCircuit(top=Abp(layers=top, widths=widths, nvars=nvars), nx=2,
                      subs=subs)


def test_to_idrrsc_numbers_placeholders_in_index_order():
    # the top y3*x1 + x2*y4*y5 holds three inverse gates, the second of them
    # inv(inv(x1)) under a product, whose own top is the placeholder y3
    idr = to_idrrsc(parse_expr("inv(x1 + x2)*x1 + x2*inv(inv(x1))*inv(x2 - 3*x1)"))
    assert idr == _idr(
        5, [[[{3: 1}, {2: 1}]], [[{1: 1}, {}], [{}, {4: 1}]], [[{0: 1}], [{5: 1}]]],
        _idr(2, [[[{1: 1, 2: 1}]]]),
        _idr(3, [[[{3: 1}]]], _idr(1, [[[{1: 1}]]])),
        _idr(2, [[[{2: 1}, {0: -3}]], [[{0: 1}], [{1: 1}]]]))


def _random_circuit(rng, dag):
    """Random nodes over x1..x3 combined until one is left; a tree uses
    each node once, a DAG also reuses its inverse gates."""
    b = CircuitBuilder()
    live = [b.var(rng.randrange(1, 4)) for _ in range(2)]
    gates = []

    def pick():
        if dag and gates and rng.random() < 0.4:
            return rng.choice(gates)
        return live.pop(rng.randrange(len(live)))

    for _ in range(rng.randrange(1, 14)):
        roll = rng.random()
        if roll < 0.1:
            live.append(b.const(rng.randrange(-3, 4)))
        elif roll < 0.3 or len(live) < 2:
            live.append(b.var(rng.randrange(1, 4)))
        elif roll < 0.5:
            live.append(b.inv(pick()))
            gates.append(live[-1])
        else:
            op = rng.choice((b.add, b.sub, b.mul))
            left = pick()
            live.append(op(left, pick()))
    out = live.pop()
    while live:
        out = b.add(pick(), out)
    return b.build(out)


def test_compiled_pencils_are_unchanged():
    """SHA-256 of the pencil files of compile_idrrsc(to_idrrsc(c)) over
    M61, F_7 and Q: the reference corpus, 240 seeded random circuits (every
    third a DAG that shares inverse gates), inv( nested 60 deep and one top
    holding 43 inverse gates."""
    rng = random.Random(0x1DF)
    circuits = [c for _, c, _ in corpus()]
    circuits += [_random_circuit(rng, dag=k % 3 == 2) for k in range(240)]
    circuits.append(parse_expr("inv(" * 60 + "x1 + inv(x2)" + ")" * 60))
    circuits.append(parse_expr(" + ".join(["inv(x1)"] * 40)
                               + " + x2*inv(inv(x1))*inv(x2)"))
    h = hashlib.sha256()
    for c in circuits:
        idr = to_idrrsc(c)
        for field in (F, prime_field(7), QQ):
            e = compile_idrrsc(idr, field)
            h.update(dump_pencil(e.pencil, (e.row, e.col)).encode())
    assert h.hexdigest() == \
        "71dd5f9e7c2664d61c1b9edb28a10d7ad72326eaef769661600e703b890364aa"


def test_compiled_sums_are_unchanged():
    """SHA-256 of the pencil files of compile_idrrsc(to_idrrsc(c)) over
    M61, F_7 and Q for sums whose operands have different depths (so the
    shorter one is padded), one-layer sums that cancel, zero constants
    inside sums, and 300 terms of x1*x2*x1."""
    term = "x1*x2*x3*x1 - 2 + x2"
    sources = [
        " + ".join([term] * 100),
        " - ".join([f"({term})"] * 100),
        "x1 - x1 + 2*x2",
        "x1 - x1",
        "2 - 2 + x1*x2 - x1*x2",
        "x1*x2 + 0 + x3*x1*x2",
        "0 - x1*x2*x3 + 0*x1",
        "0 + 0",
        "(x1 + x2*x3)*(x3 - x1*x2*x1)*(2 + x1) - (x2 - 0)*(x1*x1 + 3)",
        "inv(x1*x2 - x2*x1 + 1)*x3 - x1*inv(x2 + 0)*x1 + inv(x3)",
        " + ".join(["x1*x2*x1"] * 300),
    ]
    h = hashlib.sha256()
    for src in sources:
        idr = to_idrrsc(parse_expr(src))
        for field in (F, prime_field(7), QQ):
            e = compile_idrrsc(idr, field)
            h.update(dump_pencil(e.pencil, (e.row, e.col)).encode())
    assert h.hexdigest() == \
        "768c8fee727ec97ca6c2c93db2bcc94b0f0f123a6b3aa0514de102cdfb5ad546"


def _pencil_files(c):
    idr = to_idrrsc(c)
    files = []
    for field in (F, prime_field(7), QQ):
        e = compile_idrrsc(idr, field)
        files.append(dump_pencil(e.pencil, (e.row, e.col)))
    return files


def _one_layer_term(b, kind):
    if kind in ("x1", "x2", "x3"):
        return b.var(int(kind[1]))
    if kind in ("inv(x1)", "inv(x2)", "inv(x3)"):
        return b.inv(b.var(int(kind[5])))
    return b.const(kind)


def _signed_tree(b, seq, rng):
    """seq is [(sign, term), ...] with the first sign +1; a random binary
    tree of + and - whose value is the signed sum, each sign pushed through
    the - above it, so that the tree holds the same signed sequence."""
    if len(seq) == 1:
        return _one_layer_term(b, seq[0][1])
    m = rng.randrange(1, len(seq))
    left, right = seq[:m], seq[m:]
    if right[0][0] > 0:
        return b.add(_signed_tree(b, left, rng), _signed_tree(b, right, rng))
    flipped = [(-s, t) for s, t in right]
    return b.sub(_signed_tree(b, left, rng), _signed_tree(b, flipped, rng))


def test_one_layer_chains_compile_alike_however_they_nest():
    """A signed sequence of one-layer terms (variables, constants, 0 and
    inverted variables), written left-nested and as a random tree of + and
    -, compiles to the same pencil files over M61, F_7 and Q, and its top's
    one form is the signed sum of the terms, the j-th inverse standing for
    placeholder nx + j."""
    rng = random.Random(0x51C)
    kinds = ["x1", "x2", "x3", "inv(x1)", "inv(x2)", "inv(x3)",
             0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)]
    for _ in range(300):
        seq = [(1, rng.choice(kinds))]
        seq += [(rng.choice((1, -1)), rng.choice(kinds)) for _ in range(rng.randrange(8))]
        b = CircuitBuilder()
        out = _one_layer_term(b, seq[0][1])
        for s, t in seq[1:]:
            out = (b.add if s > 0 else b.sub)(out, _one_layer_term(b, t))
        left_nested = b.build(out)
        b = CircuitBuilder()
        tree = b.build(_signed_tree(b, seq, rng))
        assert _pencil_files(tree) == _pencil_files(left_nested), seq
        want: dict = {}
        inverses = 0
        for s, t in seq:
            if isinstance(t, str) and t.startswith("inv"):
                inverses += 1
                k, v = tree.nvars + inverses, s
            else:
                k, v = (int(t[1]), s) if isinstance(t, str) else (0, s * t)
            want[k] = want.get(k, 0) + v
        want = {k: v for k, v in want.items() if v}
        (layer,) = to_idrrsc(tree).top.layers
        assert layer == ({(0, 0): want} if want else {}), seq


@pytest.mark.parametrize("nested,flat", [
    ("x1 + ((x2 - x1) + x1)", "x1 + x2 - x1 + x1"),
    ("x1 - (x1 - 0)", "x1 - x1 + 0"),
    ("0 - (x1 - x1)", "0 - x1 + x1"),
])
def test_one_layer_cancellations_compile_alike_however_they_nest(nested, flat):
    assert _pencil_files(parse_expr(nested)) == _pencil_files(parse_expr(flat))
    (layer,) = to_idrrsc(parse_expr(nested)).top.layers
    assert all(layer.values())                            # no empty form
    assert all(all(f.values()) for f in layer.values())   # no coefficient 0


@pytest.mark.parametrize("src,want", [
    ("1/2 + 1/2 + x1", {0: 1, 1: 1}),
    ("1/2 - 3/2 + x1", {0: -1, 1: 1}),
    ("1/3 + 1/3 - x1", {0: Fraction(2, 3), 1: -1}),
    ("x1 + 2/3 + 1/3 + x1", {1: 2, 0: 1}),
])
def test_a_sum_of_constants_is_an_int_where_it_is_integral(src, want):
    (layer,) = to_idrrsc(parse_expr(src)).top.layers
    (form,) = layer.values()
    assert form == want
    assert {k: type(v) for k, v in form.items()} == {k: type(v) for k, v in want.items()}


# -- variable reduction ----------------------------------------------------------

def test_variable_reduction_single_variable_shape():
    c = parse_expr("x1")
    red = variable_reduction(c, 0)
    assert red.nvars == 2
    # y00 y01 y00 exactly
    t = sample_tuple(F, 2, 2, 5)
    q0, q1 = t.mats
    assert eval_circuit(red, t) == q0.matmul(q1).matmul(q0)


def test_bivariate_encode_x2():
    red = variable_reduction(parse_expr("x2"), 0)
    t = sample_tuple(F, 2, 2, 6)
    q0, q1 = t.mats
    assert eval_circuit(red, t) == q0.matmul(q1).matmul(q1).matmul(q0)


def test_variable_reduction_constant_unchanged():
    red = variable_reduction(parse_expr("5"), 0)
    t = sample_tuple(F, 2, 1, 1)
    assert eval_circuit(red, t).data[0] == 5


def test_variable_reduction_preserves_height(rng):
    for _ in range(20):
        h = rng.randrange(3)
        c = random_formula(rng, nvars=3, height=h, size_budget=10)
        hc = classify(c).height
        red = variable_reduction(c, hc)
        assert classify(red).height == hc


def test_variable_reduction_requires_high_enough_h():
    with pytest.raises(ValueError):
        variable_reduction(parse_expr("inv(x1)"), 0)


def test_variable_reduction_is_substitution(rng):
    # evaluating the reduced circuit at q equals evaluating the original at
    # the transported tuple, exactly
    for _ in range(10):
        c = random_formula(rng, nvars=2, height=1, size_budget=8)
        h = classify(c).height
        red = variable_reduction(c, h)
        q = sample_tuple(F, 2 * (h + 1), 2, rng)
        p = transport_tuple(q, n=2, h=h)
        try:
            lhs = eval_circuit(red, q)
        except Undefined:
            lhs = None
        try:
            rhs = eval_circuit(c, p)
        except Undefined:
            rhs = None
        assert (lhs is None) == (rhs is None)
        if lhs is not None:
            assert lhs == rhs


# -- circuit files ------------------------------------------------------------------

def test_circuit_file_round_trip(rng):
    c = parse_expr(HUA)
    back = parse_circuit(dump_circuit(c))
    t = sample_tuple(F, 2, 2, rng)
    try:
        v1 = eval_circuit(c, t)
    except Undefined:
        v1 = None
    try:
        v2 = eval_circuit(back, t)
    except Undefined:
        v2 = None
    assert v1 == v2 and classify(back) == classify(c)


def test_circuit_file_arbitrary_ids():
    text = "10 var 1\n4 var 2\n2 mul 10 4\noutput 2\n"
    c = parse_circuit(text)
    t = sample_tuple(F, 2, 2, 8)
    assert eval_circuit(c, t) == t.mats[0].matmul(t.mats[1])


def test_circuit_file_rejects_cycles():
    with pytest.raises(ValueError):
        parse_circuit("0 add 0 0\noutput 0\n")


def test_circuit_file_fraction_constants():
    c = parse_expr("2/3 * x1")
    back = parse_circuit(dump_circuit(c))
    assert any(n[0] == "const" and n[1] == Fraction(2, 3) for n in back.nodes)


@st.composite
def trees(draw):
    """Random post-order trees, built like a reverse-Polish program."""
    b = CircuitBuilder()
    stack = []
    ops = draw(st.lists(st.sampled_from(["leaf", "leaf", "inv", "add", "sub", "mul"]),
                        min_size=1, max_size=40))
    for op in ops:
        if op == "inv" and stack:
            stack.append(b.inv(stack.pop()))
        elif op in ("add", "sub", "mul") and len(stack) >= 2:
            r = stack.pop()
            stack.append(b._push((op, stack.pop(), r)))
        elif draw(st.booleans()):
            stack.append(b.var(draw(st.integers(1, 6))))
        else:
            stack.append(b.const(draw(st.fractions(max_denominator=40))))
    while len(stack) > 1:
        r = stack.pop()
        stack.append(b.add(stack.pop(), r))
    return b.build(stack[0])


@settings(max_examples=200, deadline=None)
@given(trees())
def test_circuit_file_round_trips_generated_trees(c):
    assert parse_circuit(dump_circuit(c)) == c


# -- evaluation at d = 1, on field scalars ------------------------------------------

F7, F101 = prime_field(7), prime_field(101)
SCALAR_FIELDS = (F, F7, F101, QQ)


def _eval_scalar_and_diagonal(c, field, entries):
    """eval_circuit at the 1 x 1 tuple of entries, which runs on field
    scalars, and at its Kronecker product with I_2 (each a as diag(a, a)),
    which runs on DenseMatrix operations; an inverse gate at a singular
    value gives ("undefined", node), a constant with no value in the field
    "no value"."""
    t = MatrixTuple(field, 1, tuple(DenseMatrix(field, 1, 1, [a]) for a in entries))
    i2 = DenseMatrix.identity(field, 2)
    outs = []
    for u in (t, MatrixTuple(field, 2, tuple(kron(m, i2) for m in t.mats))):
        try:
            outs.append(eval_circuit(c, u))
        except Undefined as exc:
            outs.append(("undefined", exc.node))
        except ValueError:
            outs.append("no value")
    one, two = outs
    if isinstance(one, DenseMatrix):
        assert (one.rows, one.cols) == (1, 1)
        assert two == kron(one, i2)
        return one.data[0]
    assert two == one
    return one


def _check_scalar(x, field):
    """Entries are canonical residues over a prime and Fractions over Q."""
    if field.p:
        assert type(x) is int and 0 <= x < field.p
    else:
        assert type(x) is Fraction


@st.composite
def scalar_points(draw):
    """A field and six entries, small ones often, so that F_7 and Q hit
    singular inverses."""
    field = draw(st.sampled_from(SCALAR_FIELDS))
    if field.p:
        entry = st.one_of(st.integers(0, 3), st.integers(0, field.p - 1))
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return field, draw(st.lists(entry, min_size=6, max_size=6))


@settings(max_examples=300, deadline=None)
@given(trees(), scalar_points())
def test_eval_on_scalars_matches_diagonal_matrices(c, point):
    field, entries = point
    out = _eval_scalar_and_diagonal(c, field, entries)
    if not isinstance(out, (tuple, str)):
        _check_scalar(out, field)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=["M61", "F7", "F101", "Q"])
def test_eval_on_scalars_explicit_cases(field):
    # constants only, at a tuple of no matrices
    out = _eval_scalar_and_diagonal(parse_expr("2/3 * 5 - 1"), field, [])
    _check_scalar(out, field)
    assert out == field.sub(field.mul(field.normalize(Fraction(2, 3)), 5), 1)
    # the output is a var node: the entry itself
    entries = [field.normalize(4), field.normalize(5)]
    assert _eval_scalar_and_diagonal(parse_expr("x2"), field, entries) == entries[1]
    # a difference below zero is reduced: p - 1, or -1 over Q
    _check_scalar(_eval_scalar_and_diagonal(parse_expr("x1 - x2"), field, entries), field)
    # an inverse of zero is undefined at the inverse node on both paths
    c = parse_expr("x2*inv(x1 - x1)")
    inv_node = next(i for i, node in enumerate(c.nodes) if node[0] == "inv")
    assert _eval_scalar_and_diagonal(c, field, entries) == ("undefined", inv_node)


def test_eval_on_scalars_over_q_with_int_entries():
    # the 1 x 1 matrix operations keep int products and sums, and an inverse
    # is the Fraction that the solver returns
    ints = [3, -5]
    prod = _eval_scalar_and_diagonal(parse_expr("x1*x2 + x2"), QQ, ints)
    assert prod == -20 and type(prod) is int
    inv = _eval_scalar_and_diagonal(parse_expr("inv(x1)"), QQ, ints)
    assert inv == Fraction(1, 3) and type(inv) is Fraction
    mixed = _eval_scalar_and_diagonal(parse_expr("inv(x1 - x2) * x1 + 1/3"), QQ, ints)
    assert mixed == Fraction(17, 24) and type(mixed) is Fraction


@pytest.mark.parametrize("text,where", [
    ("", "line 1"),
    ("0 var 1\n", "line 2"),                   # no output line
    ("0 var 1\noutput 3\n", "line 2"),         # output is not a node
    ("0 add 1 2\noutput 0\n", "line 1"),       # child never defined
    ("0 var\noutput 0\n", "line 1"),           # short line
    ("0\noutput 0\n", "line 1"),
    ("0 var 1\n1 inv\noutput 1\n", "line 2"),
    ("0 const 1/0\noutput 0\n", "line 1"),
    ("0 var 0\noutput 0\n", "line 1"),
    ("0 var 1\n1 pow 0 0\noutput 1\n", "line 2"),
    ("0 var 1\n0 var 2\noutput 0\n", "line 2"),     # node 0 twice
    ("0 var 1\noutput 0\noutput 0\n", "line 3"),    # two output lines
])
def test_circuit_file_errors_name_the_line(text, where):
    with pytest.raises(ValueError, match=f"^{where}: "):
        parse_circuit(text)
