"""Rational-circuit IR: parsing, structural analysis, evaluation, and the
normal forms feeding the pencil compiler.

Circuits are DAGs over {const, var, add, sub, mul, inv} with exact
rational constants, kept field-independent; fields enter at evaluation
and compilation time.  Subtraction is a first-class node so that formula
sizes match the surface syntax.  Parsing produces trees (shared
subexpressions are not merged); DAG inputs built programmatically are
accepted and normalized by duplication under a blow-up cap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .field import DenseMatrix, MatrixTuple, Singular, invert, parse_number

LinForm = dict  # var index -> Fraction, key 0 is the constant slot


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Undefined(Exception):
    """An inverse gate was applied to a singular value."""

    def __init__(self, node: int):
        super().__init__(f"inverse of a singular value at node {node}")
        self.node = node


class BlowupExceeded(ValueError):
    """Folding a DAG, each shared node wherever it is reached, passed the cap."""


@dataclass(frozen=True)
class RationalCircuit:
    """nodes[i] is ('const', Fraction) | ('var', k) | ('add'|'sub'|'mul', l, r)
    | ('inv', child); children always precede parents."""

    nodes: tuple[tuple, ...]
    output: int
    nvars: int

    @cached_property
    def reachable(self) -> tuple[int, ...]:
        seen = set()
        stack = [self.output]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(_children(self.nodes[i]))
        return tuple(sorted(seen))

    @cached_property
    def size(self) -> int:
        return len(self.reachable)


def _children(node: tuple) -> tuple:
    return () if node[0] in ("const", "var") else node[1:]


class CircuitBuilder:
    def __init__(self):
        self.nodes: list[tuple] = []

    def _push(self, node: tuple) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def const(self, c) -> int:
        return self._push(("const", Fraction(c)))

    def var(self, i: int) -> int:
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return self._push(("var", i))

    def add(self, l: int, r: int) -> int:
        return self._push(("add", l, r))

    def sub(self, l: int, r: int) -> int:
        return self._push(("sub", l, r))

    def mul(self, l: int, r: int) -> int:
        return self._push(("mul", l, r))

    def inv(self, child: int) -> int:
        return self._push(("inv", child))

    def build(self, output: int, nvars: int | None = None) -> RationalCircuit:
        if nvars is None:
            nvars = max((n[1] for n in self.nodes if n[0] == "var"), default=0)
        return RationalCircuit(tuple(self.nodes), output, nvars)


# -- parsing -------------------------------------------------------------

# The largest variable index a parser accepts.  A circuit's nvars is its
# largest index, and every trial draws that many matrices, so a 21-byte
# name such as x99999999999999999999 would otherwise never finish.
MAX_VARS = 1 << 16

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<inv>inv\b)
  | (?P<var>x[1-9][0-9]*|y[0-9]+_[01])
  | (?P<int>[0-9]+)
  | (?P<pinv>\^-1)
  | (?P<op>[-+*/()])
""", re.VERBOSE)


def _var_index(name: str) -> int:
    """x<i> is variable i and y<j>_<b> is 2j + b + 1; a number with more
    digits than MAX_VARS reads as MAX_VARS + 1, unconverted."""
    digits, _, b = name[1:].partition("_")
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VARS)):
        return MAX_VARS + 1
    return int(digits) if name[0] == "x" else 2 * int(digits) + int(b) + 1


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.b = CircuitBuilder()

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def _at_op(self, ops: str) -> bool:
        tok = self.peek()
        return tok[0] == "op" and tok[1] in ops

    def parse(self) -> RationalCircuit:
        """Recursive descent (grammar in the README) with an explicit stack:
        `frames` saves the state outside each open "(" or "inv(", which is
        `acc` (terms so far), `op` (the operator before the current term)
        and `term` (factors so far).  Nodes come out in post-order."""
        b = self.b
        frames: list[tuple] = []
        acc = op = term = None
        while True:
            tok = self.peek()
            if tok[0] == "inv" or self._at_op("("):
                self.take()
                if tok[0] == "inv":
                    self.take("op", "(")
                frames.append((tok[0], acc, op, term))
                acc = op = term = None
                continue
            node = self.atom()
            while True:  # node is a complete atom; close what it completes
                while self.peek()[0] == "pinv":
                    self.take()
                    node = b.inv(node)
                term = node if term is None else b.mul(term, node)
                if self._at_op("*"):
                    self.take()
                    break
                if op is None:
                    acc = term
                else:
                    acc = b.add(acc, term) if op == "+" else b.sub(acc, term)
                term = None
                if self._at_op("+-"):
                    op = self.take()[1]
                    break
                if not frames:
                    tok = self.peek()
                    if tok[0] != "eof":
                        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
                    return b.build(acc)
                self.take("op", ")")
                opener, outer_acc, op, term = frames.pop()
                node = b.inv(acc) if opener == "inv" else acc
                acc = outer_acc

    def atom(self) -> int:
        tok = self.peek()
        if tok[0] == "var":
            self.take()
            k = _var_index(tok[1])
            if k > MAX_VARS:
                raise ParseError(f"variable index above {MAX_VARS}", tok[2])
            return self.b.var(k)
        if tok[0] == "int":
            self.take()
            num = int(tok[1])
            if self._at_op("/"):
                self.take()
                den = self.take("int")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                return self.b.const(Fraction(num, int(den[1])))
            return self.b.const(num)
        raise ParseError(f"expected an atom, found {tok[1]!r}", tok[2])


def parse_expr(text: str) -> RationalCircuit:
    """Parse an expression into a tree-shaped circuit (a formula)."""
    return _Parser(text).parse()


# -- structural analysis ---------------------------------------------------


@dataclass(frozen=True)
class CircuitInfo:
    size: int
    height: int
    is_formula: bool
    is_poly: bool


def classify(c: RationalCircuit) -> CircuitInfo:
    reach = c.reachable
    height = {}
    fanout = {i: 0 for i in reach}
    for i in reach:
        node = c.nodes[i]
        kind = node[0]
        if kind in ("const", "var"):
            height[i] = 0
        elif kind == "inv":
            height[i] = height[node[1]] + 1
            fanout[node[1]] += 1
        else:
            height[i] = max(height[node[1]], height[node[2]])
            fanout[node[1]] += 1
            fanout[node[2]] += 1
    is_formula = all(fanout[i] <= 1 for i in reach)
    h = height[c.output]
    return CircuitInfo(size=len(reach), height=h, is_formula=is_formula,
                       is_poly=(h == 0))


def eval_circuit(c: RationalCircuit, t: MatrixTuple) -> DenseMatrix:
    """Bottom-up evaluation at a matrix tuple; raises Undefined(node) when
    an inverse gate hits a singular value."""
    if c.nvars > t.n:
        raise ValueError("tuple has fewer matrices than the circuit has variables")
    field = t.field
    vals: dict[int, DenseMatrix] = {}
    for i in c.reachable:
        node = c.nodes[i]
        kind = node[0]
        if kind == "const":
            vals[i] = DenseMatrix.identity(field, t.d).scale(field.normalize(node[1]))
        elif kind == "var":
            vals[i] = t.mats[node[1] - 1]
        elif kind == "add":
            vals[i] = vals[node[1]].add(vals[node[2]])
        elif kind == "sub":
            vals[i] = vals[node[1]].sub(vals[node[2]])
        elif kind == "mul":
            vals[i] = vals[node[1]].matmul(vals[node[2]])
        elif kind == "inv":
            try:
                vals[i] = invert(vals[node[1]])
            except Singular:
                raise Undefined(i) from None
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    return vals[c.output]


# -- algebraic branching programs ------------------------------------------


@dataclass(frozen=True)
class Abp:
    """Layered branching program in normal form: vertex layers of widths
    w0, ..., w_d with w0 = w_d = 1, and layers[t] the edges from layer t to
    layer t + 1, stored sparse as {(i, j): form} with no empty form; a form
    is affine, {var index -> Fraction} with key 0 the constant part."""

    layers: tuple
    widths: tuple
    nvars: int

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(self.widths)

    @property
    def size(self) -> int:
        return sum(self.widths)


def _form_add(a: LinForm, b: LinForm) -> LinForm:
    """a + b, written into a, which no other node's layers hold: a copy of
    a would make a sum of n one-layer terms take time quadratic in n."""
    for k, v in b.items():
        s = a.get(k, Fraction(0)) + v
        if s == 0:
            a.pop(k, None)
        else:
            a[k] = s
    return a


def _abp_sum(a: tuple[list, list], b: tuple[list, list], negate_b: bool) -> None:
    """Write the branching program b, given as (layers, widths), into a as
    a + b or a - b: the shorter one is padded with identity layers, and b's
    vertices go after a's in every inner layer.  Both own their lists and
    forms: a's are changed in place and b's are moved into them."""
    (la, wa), (lb, wb) = a, b
    for layers, widths in (a, b):
        while len(layers) < max(len(la), len(lb)):
            layers.append({(0, 0): {0: Fraction(1)}})
            widths.append(1)
    if negate_b:
        for form in lb[0].values():
            for k in form:
                form[k] = -form[k]
    last = len(la) - 1
    for t, (dst, src) in enumerate(zip(la, lb)):
        ro = wa[t] if t > 0 else 0
        co = wa[t + 1] if t < last else 0
        for (i, j), form in src.items():
            key = (ro + i, co + j)
            if key not in dst:
                dst[key] = form
            elif not _form_add(dst[key], form):
                del dst[key]
    wa[1:-1] = [x + y for x, y in zip(wa[1:-1], wb[1:-1])]


def formula_to_abp(c: RationalCircuit) -> Abp:
    """Standard simulation of an inverse-free tree formula by a branching
    program of size linear in the formula size."""
    info = classify(c)
    if info.height != 0:
        raise ValueError("formula contains inverse gates")
    if not info.is_formula:
        raise ValueError("input must be tree-shaped")
    return _fold(c, info.size).top


# -- inversely disjoint normal form ----------------------------------------


@dataclass(frozen=True)
class IdrCircuit:
    """Recursive decomposition r = f(x, g_1^{-1}, ..., g_m^{-1}): the top is
    an inverse-free branching program over the x variables (1..nx) and one
    placeholder variable nx+k for the top's k-th inverse gate in post-order;
    subs[k-1] is g_k, and the subs are node-disjoint circuits of strictly
    lower inversion height."""

    top: Abp
    nx: int
    subs: tuple["IdrCircuit", ...]

    @property
    def m(self) -> int:
        return len(self.subs)

    @property
    def height(self) -> int:
        h, level = 0, self.subs
        while level:                     # one level of subs per inversion
            h += 1
            level = [s for node in level for s in node.subs]
        return h

    @property
    def size(self) -> int:
        total, stack = 0, [self]
        while stack:                     # each top, plus one per inverse gate
            node = stack.pop()
            total += node.top.size + node.m
            stack.extend(node.subs)
        return total


def to_idrrsc(c: RationalCircuit) -> IdrCircuit:
    """Normalize a circuit to the inversely disjoint form: a maximal
    inverse-free top lowered to a branching program, with one placeholder
    per top-level inverse gate and recursively normalized sub-circuits.
    DAG sharing is resolved by folding a shared node again wherever it is
    reached, up to 8 times the original size; BlowupExceeded beyond that."""
    return _fold(c, 8 * c.size)


def _fold(c: RationalCircuit, cap_nodes: int) -> IdrCircuit:
    """One depth-first walk from c's output, left before right: a node is
    counted against cap_nodes when opened and folded when its children are
    done, so a shared node is folded wherever it is reached.  `stack` holds
    each finished operand's branching-program layers and widths, and how
    many placeholders they hold, for the last subs on `pending` (pending[j]
    is variable nx + j + 1).  An inverse gate closes its child's top into a
    sub and leaves a placeholder for it.  Each operand owns its lists and
    forms, so `*` and `+` extend and add into the left one."""
    nx = c.nvars
    pending: list[IdrCircuit] = []
    stack: list[tuple[list, list, int]] = []
    count = 0
    walk = [(c.output, False)]           # (node, children already folded)
    while walk:
        i, closing = walk.pop()
        node = c.nodes[i]
        kind = node[0]
        if not closing:
            count += 1
            if count > cap_nodes:
                raise BlowupExceeded(
                    f"tree expansion exceeded {cap_nodes} nodes; the circuit shares "
                    "subexpressions too aggressively for duplication")
            if kind not in ("const", "var"):
                walk.append((i, True))
                walk.extend((ch, False) for ch in reversed(node[1:]))
                continue
        if kind in ("add", "sub", "mul"):
            lb, wb, kb = stack.pop()
            la, wa, ka = stack.pop()
            if kind == "mul":
                la += lb
                wa += wb[1:]
            else:
                _abp_sum((la, wa), (lb, wb), kind == "sub")
            stack.append((la, wa, ka + kb))
            continue
        k = 0
        if kind == "var":
            form = {node[1]: Fraction(1)}
        elif kind == "const":
            form = {0: Fraction(node[1])} if node[1] else {}
        else:
            pending.append(_close(*stack.pop(), pending, nx))
            form, k = {nx + len(pending): Fraction(1)}, 1
        stack.append(([{(0, 0): form} if form else {}], [1, 1], k))
    return _close(*stack.pop(), pending, nx)


def _close(layers: list, widths: list, k: int, pending: list, nx: int) -> IdrCircuit:
    """Freeze a finished top whose k placeholders stand for the last k subs
    on pending: take those subs off, and renumber the placeholders to
    nx+1, ..., nx+k, which keeps them in index order."""
    base = len(pending) - k
    subs = tuple(pending[base:])
    del pending[base:]
    if k and base:
        layers = [{ij: {(v - base if v > nx else v): a for v, a in f.items()}
                   for ij, f in m.items()} for m in layers]
    nvars = max((v for m in layers for f in m.values() for v in f), default=0)
    return IdrCircuit(top=Abp(layers=tuple(layers), widths=tuple(widths), nvars=nvars),
                      nx=nx, subs=subs)


# -- variable substitutions -------------------------------------------------


def variable_reduction(c: RationalCircuit, h: int) -> RationalCircuit:
    """Substitute x_i -> sum_{j=0..h} y_{j0} y_{j1}^i y_{j0}; the result uses
    2(h+1) variables (y_{j0} = 2j+1, y_{j1} = 2j+2) and keeps the inversion
    height of the input."""
    if h < classify(c).height:
        raise ValueError("h must be at least the inversion height")
    b = CircuitBuilder()
    new: dict[int, int] = {}              # old index -> index in b

    def encode_var(i: int) -> int:
        total = None
        for j in range(h + 1):
            pw = b.var(2 * j + 2)
            for _ in range(i - 1):
                pw = b.mul(pw, b.var(2 * j + 2))
            term = b.mul(b.var(2 * j + 1), b.mul(pw, b.var(2 * j + 1)))
            total = term if total is None else b.add(total, term)
        return total

    for i in c.reachable:
        node = c.nodes[i]
        kind = node[0]
        if kind == "const":
            new[i] = b.const(node[1])
        elif kind == "var":
            new[i] = encode_var(node[1])
        elif kind == "inv":
            new[i] = b.inv(new[node[1]])
        else:
            new[i] = b._push((kind, new[node[1]], new[node[2]]))
    return b.build(new[c.output], nvars=2 * (h + 1))


def transport_tuple(q: MatrixTuple, n: int, h: int) -> MatrixTuple:
    """Map a witness for the reduced circuit back: p_i = sum_j q_{j0} q_{j1}^i q_{j0}."""
    if q.n < 2 * (h + 1):
        raise ValueError("tuple too short for the reduction parameters")
    f = q.field
    accs = transport_lists([m.to_lists() for m in q.mats[:2 * (h + 1)]], n,
                           f.p or None)
    return MatrixTuple(f, q.d, tuple(DenseMatrix.from_rows(f, acc) for acc in accs))


def transport_lists(qs: list, n: int, p: int | None) -> list:
    """p_1..p_n of transport_tuple for q_{00}, q_{01}, q_{10}, q_{11}, ...
    given as d x d lists of rows of numbers: each product is reduced mod p
    unless p is None, each sum is left unreduced, and q_{j1}^i is carried
    over from i - 1."""
    d = len(qs[0])
    accs = [[[0] * d for _ in range(d)] for _ in range(n)]
    for q0, q1 in zip(qs[::2], qs[1::2]):
        pw = q1                               # q1^i for i = 1..n in turn
        for i, acc in enumerate(accs):
            if i:
                pw = _imatmul(pw, q1, p)
            term = _imatmul(_imatmul(q0, pw, p), q0, p)
            for ra, rb in zip(acc, term):
                ra[:] = [a + b for a, b in zip(ra, rb)]
    return accs


def _imatmul(a: list, b: list, p: int | None = None) -> list:
    """a b for lists of rows of numbers, reduced mod p unless p is None."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if v:
                for j in range(m):
                    out[i][j] += v * b[t][j]
        if p is not None:
            out[i] = [x % p for x in out[i]]
    return out


# -- circuit file format -----------------------------------------------------


def dump_circuit(c: RationalCircuit) -> str:
    lines = []
    for i, node in enumerate(c.nodes):
        kind = node[0]
        if kind == "const":
            v = Fraction(node[1])
            txt = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            lines.append(f"{i} const {txt}")
        elif kind == "var":
            lines.append(f"{i} var {node[1]}")
        elif kind == "inv":
            lines.append(f"{i} inv {node[1]}")
        else:
            lines.append(f"{i} {kind} {node[1]} {node[2]}")
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


_ARITY = {"const": 1, "var": 1, "inv": 1, "add": 2, "sub": 2, "mul": 2}


def parse_circuit(text: str) -> RationalCircuit:
    """Lines `<id> <kind> <args>` in any order, plus `output <id>`; node ids
    are renumbered in topological order.  Malformed input raises
    ValueError naming the line."""
    raw: dict[int, tuple] = {}
    line_of: dict[int, int] = {}
    output = output_line = None
    for lineno, ln in enumerate(text.splitlines(), 1):
        parts = ln.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if parts[0] == "output":
                if len(parts) != 2:
                    raise ValueError("output takes one node id")
                if output_line is not None:
                    raise ValueError("second output line")
                output, output_line = int(parts[1]), lineno
                continue
            if len(parts) < 2 or parts[1] not in _ARITY:
                raise ValueError(f"expected `<id> <kind> <args>`, found {ln.strip()!r}")
            kind = parts[1]
            if len(parts) != 2 + _ARITY[kind]:
                raise ValueError(f"{kind} takes {_ARITY[kind]} argument(s)")
            nid = int(parts[0])
            if nid in raw:
                raise ValueError(f"node {nid} is already defined at line {line_of[nid]}")
            if kind == "const":
                raw[nid] = ("const", Fraction(parse_number(parts[2])))
            else:
                raw[nid] = (kind,) + tuple(int(x) for x in parts[2:])
            if kind == "var" and raw[nid][1] < 1:
                raise ValueError("variable indices are 1-based")
            if kind == "var" and raw[nid][1] > MAX_VARS:
                raise ValueError(f"variable index above {MAX_VARS}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        line_of[nid] = lineno
    if output is None:
        raise ValueError(f"line {len(text.splitlines()) + 1}: end of file, "
                         "missing output line")
    if output not in raw:
        raise ValueError(f"line {output_line}: node {output} is not defined")
    for nid, node in raw.items():
        for ch in _children(node):
            if ch not in raw:
                raise ValueError(f"line {line_of[nid]}: node {ch} is not defined")
    # depth-first topological sort, numbering each node as it is closed
    remap: dict[int, int] = {}
    on_path: set[int] = set()
    for root in raw:
        stack = [(root, False)]            # (node, children already sorted)
        while stack:
            i, closing = stack.pop()
            if closing:
                on_path.discard(i)
                remap[i] = len(remap)
            elif i in on_path:
                raise ValueError(f"line {line_of[i]}: circuit file contains "
                                 f"a cycle through node {i}")
            elif i not in remap:
                on_path.add(i)
                stack.append((i, True))
                stack.extend((ch, False) for ch in reversed(_children(raw[i])))
    nodes = []
    for old in remap:
        node = raw[old]
        if _children(node):
            node = (node[0],) + tuple(remap[ch] for ch in node[1:])
        nodes.append(node)
    return RationalCircuit(tuple(nodes), remap[output],
                           max((n[1] for n in nodes if n[0] == "var"), default=0))


def read_circuit(path: str) -> RationalCircuit:
    with open(path) as fh:
        return parse_circuit(fh.read())
