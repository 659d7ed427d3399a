"""The benchmark's three workloads.

Each workload turns a seed into a deterministic list of items, its pass,
and runs one item through ncrat's public API, checking the result against
an answer fixed by how the item was built.  The harness repeats the pass
in fresh processes.  Every call into ncrat goes through a module
attribute looked up at call time (``circuit.eval_circuit``), so the traced
run's wrappers see the harness's calls too.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

from ncrat import circuit, field, pencil, rank, rit

F = field.prime_field()          # the default field, p = 2^61 - 1
P = F.p
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HIGMAN = os.path.join(ROOT, "data", "higman.skm")


class Mismatch(Exception):
    """An item's result disagrees with the answer fixed by its construction."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- an evaluator independent of ncrat: 2x2 matrices over F_p ----------------
#
# Formulas are generated here as trees ('var', i) | ('const', c) |
# (op, l, r) | ('inv', x).  Evaluating a tree at a 2x2 point with this code
# certifies an expected verdict without calling the code under test.


def _m_add(a, b):
    return tuple((x + y) % P for x, y in zip(a, b))


def _m_sub(a, b):
    return tuple((x - y) % P for x, y in zip(a, b))


def _m_mul(a, b):
    return ((a[0] * b[0] + a[1] * b[2]) % P, (a[0] * b[1] + a[1] * b[3]) % P,
            (a[2] * b[0] + a[3] * b[2]) % P, (a[2] * b[1] + a[3] * b[3]) % P)


def _m_det(a):
    return (a[0] * a[3] - a[1] * a[2]) % P


def _m_inv(a):
    det = _m_det(a)
    if det == 0:
        return None
    di = pow(det, P - 2, P)
    return (a[3] * di % P, -a[1] * di % P, -a[2] * di % P, a[0] * di % P)


def _eval2(tree, point):
    """Value of a formula tree at a tuple of 2x2 matrices, or None when an
    inverse gate meets a singular value."""
    kind = tree[0]
    if kind == "var":
        return point[tree[1] - 1]
    if kind == "const":
        return (tree[1] % P, 0, 0, tree[1] % P)
    if kind == "inv":
        x = _eval2(tree[1], point)
        return None if x is None else _m_inv(x)
    left, right = _eval2(tree[1], point), _eval2(tree[2], point)
    if left is None or right is None:
        return None
    return {"add": _m_add, "sub": _m_sub, "mul": _m_mul}[kind](left, right)


def _text(tree) -> str:
    kind = tree[0]
    if kind == "var":
        return f"x{tree[1]}"
    if kind == "const":
        return str(tree[1])
    if kind == "inv":
        return f"inv({_text(tree[1])})"
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return f"({_text(tree[1])} {op} {_text(tree[2])})"


def _point2(rng, nvars):
    return [tuple(rng.randrange(P) for _ in range(4)) for _ in range(nvars)]


# -- rit-corpus ------------------------------------------------------------------


def _poly(rng, budget: int, nvars: int = 3):
    """A random inverse-free formula with at most `budget` nodes."""
    if budget < 3 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return ("const", rng.randrange(1, 10))
        return ("var", rng.randrange(1, nvars + 1))
    op = rng.choice(("add", "sub", "mul", "mul"))
    left = rng.randrange(1, budget - 1)
    return (op, _poly(rng, left, nvars), _poly(rng, budget - 1 - left, nvars))


def _rational(rng, height: int, budget: int, nvars: int = 3):
    """A random formula of inversion height at most `height`."""
    if budget >= 2 and height > 0 and rng.random() < 0.35:
        return ("inv", _rational(rng, height - 1, budget - 1, nvars))
    if budget < 3 or rng.random() < 0.15:
        return _poly(rng, 1, nvars)
    op = rng.choice(("add", "sub", "mul", "mul"))
    left = rng.randrange(1, budget - 1)
    return (op, _rational(rng, height, left, nvars),
            _rational(rng, height, budget - 1 - left, nvars))


def _nodes(tree) -> int:
    return 1 + sum(_nodes(t) for t in tree[1:] if isinstance(t, tuple))


def _fill(shape, rng, nvars: int = 3):
    """`shape` with every leaf redrawn: a variable in x1..x{nvars}, a
    constant in 1..9."""
    kind = shape[0]
    if kind == "var":
        return ("var", rng.randrange(1, nvars + 1))
    if kind == "const":
        return ("const", rng.randrange(1, 10))
    return (kind,) + tuple(_fill(t, rng, nvars) for t in shape[1:])


def _inv(x):
    return ("inv", x)


X, C = ("var", 1), ("const", 1)      # leaves of a shape; _fill redraws them

# A formula's cost in rit_test follows its shape (operators and tree), not
# its leaves: a zero verdict runs every trial and grows steeply with the
# pencil, so a free draw of shapes moved a run's p90 by 30% from seed to
# seed.  Members are therefore drawn as fixed shapes with seeded leaves.
#
# Zero members: reference identities with polynomial slots a, b, which are
# zero wherever defined.  (label, members per pass, a, b, identity.)  Hua
# and the degree-2 double inverse cost about the same as the reference
# hua members, so together they fill the slowest 20 places of the pass and
# its p90 falls inside that group.
ZERO_TEMPLATES = (
    ("hua", 9, X, ("sub", X, X),
     lambda a, b: ("sub", ("add", _inv(("add", a, ("mul", a, ("mul", _inv(b), a)))),
                           _inv(("add", a, b))), _inv(a))),
    ("double-inverse-minus", 9, ("add", ("mul", X, X), X), None,
     lambda a, b: ("sub", _inv(_inv(a)), a)),
    ("one-minus-unit", 5, ("sub", ("sub", X, X), X), None,
     lambda a, b: ("sub", ("mul", a, _inv(a)), ("const", 1))),
    ("unit-of-sum", 4, ("sub", X, X), ("mul", X, C),
     lambda a, b: ("sub", ("mul", ("add", a, b), _inv(("add", a, b))), ("const", 1))),
)


def _nonzero_shapes(count: int) -> tuple:
    """`count` formula shapes of height <= 2 and 5..20 nodes, drawn once
    from a constant seed so that every workload seed uses the same ones."""
    rng = random.Random("rit-corpus nonzero shapes")
    shapes = []
    while len(shapes) < count:
        shape = _rational(rng, len(shapes) % 3, rng.randrange(5, 21))
        if _nodes(shape) >= 5:
            shapes.append(shape)
    return tuple(shapes)


NONZERO_SHAPES = _nonzero_shapes(10)
NONZERO_PER_SHAPE = 4


@dataclass(frozen=True)
class RitItem:
    label: str
    text: str
    zero: bool
    seed: int


class RitCorpus:
    """Many short verdicts, as `ncrat rit --corpus` runs them (trials=8,
    dim_cap=8): the 33 reference members, 27 zero members from
    ZERO_TEMPLATES and 40 nonzero members, 4 on each of NONZERO_SHAPES;
    100 distinct formulas, 36 zero and 64 nonzero."""

    name = "rit-corpus"
    input_size = ("100 distinct formulas: the 33 reference members, 27 zero members "
                  "(hua 9, degree-2 double inverse 9, a*inv(a)-1 5, (a+b)*inv(a+b)-1 4), "
                  "40 nonzero members (4 on each of 10 fixed shapes, height <= 2, "
                  "5-20 nodes); trials=8, dim_cap=8")

    def __init__(self, seed: int):
        self.seed = seed

    def items(self) -> list[RitItem]:
        rng = random.Random(f"{self.name}:{self.seed}")
        seen = {src for _, src in rit.NONZERO_EXPRESSIONS + rit.ZERO_EXPRESSIONS}
        items = [RitItem(lbl, src, False, 0) for lbl, src in rit.NONZERO_EXPRESSIONS]
        items += [RitItem(lbl, src, True, 0) for lbl, src in rit.ZERO_EXPRESSIONS]
        for label, count, a, b, build in ZERO_TEMPLATES:
            for _ in range(count):
                items.append(RitItem(label, self._zero_member(rng, seen, a, b, build),
                                     True, 0))
        for i, shape in enumerate(NONZERO_SHAPES):
            for _ in range(NONZERO_PER_SHAPE):
                items.append(RitItem(f"shape-{i}", self._nonzero_member(rng, seen, shape),
                                     False, 0))
        rng.shuffle(items)
        return [replace(it, seed=rng.randrange(1 << 31)) for it in items]

    @staticmethod
    def _zero_member(rng, seen: set, a, b, build) -> str:
        """The identity with its slots filled, defined at a seeded 2x2 point
        (where it must evaluate to 0) and not in `seen`."""
        while True:
            tree = build(_fill(a, rng), b and _fill(b, rng))
            value = _eval2(tree, _point2(rng, 3))
            if value is None:          # some inverse undefined at the point
                continue
            if value != (0, 0, 0, 0):
                raise AssertionError(f"identity {_text(tree)} is not zero at a point")
            if _text(tree) not in seen:
                seen.add(_text(tree))
                return _text(tree)

    @staticmethod
    def _nonzero_member(rng, seen: set, shape) -> str:
        """The shape with its leaves drawn, found defined and invertible at a
        seeded 2x2 point by the evaluator above, so nonzero, and not in
        `seen`."""
        for _ in range(1000):
            tree = _fill(shape, rng)
            value = _eval2(tree, _point2(rng, 3))
            if value is not None and _m_det(value) != 0 and _text(tree) not in seen:
                seen.add(_text(tree))
                return _text(tree)
        raise AssertionError(f"no nonzero member of shape {_text(shape)}")

    @staticmethod
    def run(item: RitItem):
        circ = circuit.parse_expr(item.text)
        v = rit.rit_test(circ, F, rit.RitParams(trials=8, dim_cap=8, seed=item.seed))
        _check(v.kind == ("zero" if item.zero else "nonzero"), "verdict")
        if v.kind == "nonzero":
            _check(field.is_invertible(circuit.eval_circuit(circ, v.witness)),
                   "witness")
        return (item.label, v.kind, v.dimension, v.trials_run)


# -- rit-reduced -----------------------------------------------------------------


@dataclass(frozen=True)
class ReducedItem:
    label: str
    circ: object
    zero: bool


# hua-swapped alone takes 12 s, 60% of the C09 pass, and all of its 1.7 GB
# peak.  A run fits one sample of it, and that sample moved items_per_s by
# 37% between runs of the same code, so it is left out; hua, its mirror
# image (4 s, 0.6 GB peak), stays, and the pass fits four times in a run.
LEFT_OUT = ("hua-swapped",)


# C09's trial seeds.  Members near the median take one more trial under
# some seeds than others (harmonic-pair 8 or 13 ms), so drawing the trial
# seeds moved the median by 18% between runs.  The order is C09's too:
# members share compiled subcircuits through rit's cache, so shuffling them
# moved the tail by 50%.  The pass is therefore the same for every seed.
VERDICT_SEED, WITNESS_SEED = 9, 19


class RitReduced:
    """The reference corpus but hua-swapped through variable_reduction to
    2(h+1) variables, run as the C09 acceptance test runs it."""

    name = "rit-reduced"
    input_size = ("the 33 reference members but hua-swapped, reduced to 2(h+1) "
                  "variables; verdict trials=6, dim_cap=4, seed 9; witness trials=8, "
                  "dim_cap=4, seed 19")

    def __init__(self, seed: int):
        self.seed = seed

    def items(self) -> list[ReducedItem]:
        return [ReducedItem(lbl, circ, zero)
                for lbl, circ, zero in rit.corpus() if lbl not in LEFT_OUT]

    @staticmethod
    def run(item: ReducedItem):
        circ = item.circ
        h = circuit.classify(circ).height
        reduced = circuit.variable_reduction(circ, h)
        v = rit.rit_test(reduced, F, rit.RitParams(trials=6, dim_cap=4, seed=VERDICT_SEED))
        _check(v.is_zero == item.zero, "verdict")
        if item.zero:
            return (item.label, v.kind, v.trials_run)
        q = rit.strong_witness(reduced, F, rit.RitParams(trials=8, dim_cap=4,
                                                         seed=WITNESS_SEED))
        p = circuit.transport_tuple(q, n=max(circ.nvars, 1), h=h)
        _check(field.is_invertible(circuit.eval_circuit(circ, p)), "witness")
        return (item.label, v.kind, v.dimension, v.trials_run, q.d)


# -- ncrank-grid -----------------------------------------------------------------


@dataclass(frozen=True)
class RankItem:
    label: str
    grid: tuple          # m x m expression texts; None marks a zero entry
    rank: int
    min_dim: int         # smallest witness dimension that can show the rank
    seed: int


def _affine(rng, var: int):
    """Random affine form c0 + c*x_var as (c0, c1, c2, c3).  The variable is
    fixed by the form's position, so every grid of a shape compiles to the
    same pencils and costs the same; only the coefficients are drawn."""
    form = [rng.randrange(1, 10), 0, 0, 0]
    form[var] = rng.randrange(1, 10)
    return tuple(form)


def _affine_text(form) -> str:
    terms = [str(form[0])] if form[0] else []
    terms += [f"{c}*x{i}" for i, c in enumerate(form[1:], 1) if c]
    return "(" + " + ".join(terms) + ")"


def _scalar_rank(rows) -> int:
    """Rank of a small matrix over F_p by plain elimination."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % P), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], P - 2, P)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % P
            rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _full_rank_forms(rng, rows: int, cols: int, shift: int):
    """rows x cols affine forms whose value at a random scalar point has
    rank min(rows, cols); that rank bounds the noncommutative rank below."""
    while True:
        forms = [[_affine(rng, 1 + (i + j + shift) % 3) for j in range(cols)]
                 for i in range(rows)]
        pt = (1,) + tuple(rng.randrange(P) for _ in range(3))
        vals = [[sum(a * b for a, b in zip(f, pt)) % P for f in row] for row in forms]
        if _scalar_rank(vals) == min(rows, cols):
            return forms


SKEW3 = (("0", "x1", "x2"), ("0 - x1", "0", "x3"), ("0 - x2", "0 - x3", "0"))
# (m, r) of the U*V grids in a pass.  Costs rise in this order (about 0.08,
# 0.15, 0.3, 0.8 and 1.7 s), with higman.skm at 0.03 s and the skew grid at
# 0.1 s.  The 11 items' median (6th) and tail (9th) fall in the middle of
# the three (3, 1) and the three (3, 2) grids, so neither sits on the
# border between two shapes, and each is the middle of three draws.
GRID_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 1), (3, 1), (3, 2), (3, 2), (3, 2), (3, 3))


class NcrankGrid:
    """The ncrank path (make_skew_matrix -> ncrank_skew -> certificate)
    over seeded U*V grids of rank r, data/higman.skm (rank 2) and the 3x3
    generic skew-symmetric grid (rank 3, witness dimension at least 2)."""

    name = "ncrank-grid"
    input_size = ("11 grids: U*V at (m, r) = (2,1) (2,2) 3x(3,1) 3x(3,2) (3,3), "
                  "higman.skm, 3x3 skew-symmetric; trials=8, dims 1..2m")

    def __init__(self, seed: int):
        self.seed = seed

    def items(self) -> list[RankItem]:
        rng = random.Random(f"{self.name}:{self.seed}")
        items = [RankItem("higman", None, 2, 1, 0), RankItem("skew3", SKEW3, 3, 2, 0)]
        for m, r in GRID_SHAPES:
            U = _full_rank_forms(rng, m, r, 0)
            V = _full_rank_forms(rng, r, m, 1)
            grid = tuple(tuple(" + ".join(f"{_affine_text(U[i][t])}*{_affine_text(V[t][j])}"
                                          for t in range(r))
                               for j in range(m)) for i in range(m))
            items.append(RankItem(f"uv-{m}x{r}", grid, r, 1, 0))
        rng.shuffle(items)
        return [replace(it, seed=rng.randrange(1 << 31)) for it in items]

    @staticmethod
    def run(item: RankItem):
        if item.grid is None:
            M = rank.read_skew_file(HIGMAN, F)
        else:
            entries = [[None if src == "0" else
                        pencil.compile_idrrsc(circuit.to_idrrsc(circuit.parse_expr(src)), F)
                        for src in row] for row in item.grid]
            M = rank.make_skew_matrix(entries, F)
        res = rank.ncrank_skew(M, rank.RankParams(trials=8, seed=item.seed))
        _check(res.r == item.rank and res.d >= item.min_dim, "rank")
        _check(res.certificate == res.r * res.d
               and field.rank_of(rank.assemble_at(M, res.witness)) == res.r * res.d,
               "certificate")
        return (item.label, res.r, res.d, res.certificate)


WORKLOADS = {w.name: w for w in (RitCorpus, RitReduced, NcrankGrid)}
