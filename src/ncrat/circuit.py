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
from itertools import compress

from .field import DenseMatrix, MatrixTuple, Singular, invert, parse_number

LinForm = dict  # var index -> int or Fraction, key 0 is the constant slot


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
        """The nodes the output depends on, in index order: one sweep down
        from the output, as children precede parents."""
        nodes, out = self.nodes, self.output
        seen = [False] * (out + 1)
        seen[out] = True
        for i in range(out, -1, -1):
            if seen[i]:
                node = nodes[i]
                if len(node) == 3:
                    seen[node[1]] = seen[node[2]] = True
                elif node[0] == "inv":
                    seen[node[1]] = True
        return tuple(compress(range(out + 1), seen))

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

# After any whitespace, one token: a keyword, a name, a number, ^-1, an
# operator, or a character that starts no token (\S), which _fail reports.
_TOKEN = re.compile(r"\s*(inv\b|x[1-9][0-9]*|y[0-9]+_[01]|[0-9]+|\^-1|[-+*/()]|\S)")
_ONE_CHAR_TOKENS = frozenset("0123456789+-*/()")
_DIGITS = frozenset("0123456789")


def _var_index(name: str) -> int:
    """x<i> is variable i and y<j>_<b> is 2j + b + 1; a number with more
    digits than MAX_VARS reads as MAX_VARS + 1, unconverted."""
    digits, _, b = name[1:].partition("_")
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VARS)):
        return MAX_VARS + 1
    return int(digits) if name[0] == "x" else 2 * int(digits) + int(b) + 1


def _fail(text: str, toks: list, i: int, message: str):
    """Raise ParseError at token i (toks[-1] is the end, ""), unless some
    token is a character that starts no token: then the first of those."""
    pos = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]
    for j, tok in enumerate(toks):
        if len(tok) == 1 and tok not in _ONE_CHAR_TOKENS:
            raise ParseError(f"unexpected character {tok!r}", pos[j])
    raise ParseError(message, pos[i])


def _expect(text: str, toks: list, i: int, op: str):
    """The error for token i where the operator op must stand."""
    tok = toks[i]
    what = repr(op) if tok and tok in "+-*/()" else "op"
    _fail(text, toks, i, f"expected {what}, found {tok!r}")


def parse_expr(text: str) -> RationalCircuit:
    """Parse an expression into a tree-shaped circuit (a formula).

    Recursive descent (grammar in the README) with an explicit stack over
    the token strings: `frames` saves the state outside each open "(" or
    "inv(", which is `acc` (terms so far), `op` (the operator before the
    current term) and `term` (factors so far).  Nodes come out in
    post-order, so every node is reachable."""
    toks = _TOKEN.findall(text)
    toks.append("")
    nodes: list[tuple] = []
    push = nodes.append
    frames: list[tuple] = []
    acc = op = term = None
    nvars = i = 0
    while True:
        tok = toks[i]
        i += 1
        if tok == "(" or tok == "inv":
            if tok == "inv":
                if toks[i] != "(":
                    _expect(text, toks, i, "(")
                i += 1
            frames.append((tok, acc, op, term))
            acc = op = term = None
            continue
        if len(tok) > 1 and tok[0] in "xy":
            k = int(tok[1:]) if tok[0] == "x" and len(tok) < 7 else _var_index(tok)
            if k > MAX_VARS:
                _fail(text, toks, i - 1, f"variable index above {MAX_VARS}")
            if k > nvars:
                nvars = k
            push(("var", k))
        elif tok[:1] in _DIGITS:
            if toks[i] == "/":
                den = toks[i + 1]
                if den[:1] not in _DIGITS:
                    _fail(text, toks, i + 1, f"expected int, found {den!r}")
                if int(den) == 0:
                    _fail(text, toks, i + 1, "zero denominator")
                push(("const", Fraction(int(tok), int(den))))
                i += 2
            else:
                push(("const", Fraction(int(tok))))
        else:
            _fail(text, toks, i - 1, f"expected an atom, found {tok!r}")
        node = len(nodes) - 1
        while True:  # node is a complete atom; close what it completes
            tok = toks[i]
            while tok == "^-1":
                push(("inv", node))
                node = len(nodes) - 1
                i += 1
                tok = toks[i]
            if term is None:
                term = node
            else:
                push(("mul", term, node))
                term = len(nodes) - 1
            if tok == "*":
                i += 1
                break
            if op is None:
                acc = term
            else:
                push(("add" if op == "+" else "sub", acc, term))
                acc = len(nodes) - 1
            term = None
            if tok == "+" or tok == "-":
                op = tok
                i += 1
                break
            if not frames:
                if tok:
                    _fail(text, toks, i, f"trailing input {tok!r}")
                return RationalCircuit(tuple(nodes), acc, nvars)
            if tok != ")":
                _expect(text, toks, i, ")")
            i += 1
            opener, outer_acc, op, term = frames.pop()
            if opener == "inv":
                push(("inv", acc))
                node = len(nodes) - 1
            else:
                node = acc
            acc = outer_acc


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
    an inverse gate hits a singular value.  At d = 1 the nodes hold the
    tuple's entries as field scalars, with the field's own operations, and
    only the output is wrapped as a 1 x 1 matrix: the values and types the
    1 x 1 matrix operations give (over Q an inverse is a Fraction)."""
    if c.nvars > t.n:
        raise ValueError("tuple has fewer matrices than the circuit has variables")
    field, d = t.field, t.d
    if d == 1:
        args = [m.data[0] for m in t.mats]
        const, add, sub, mul, inv = field.normalize, field.add, field.sub, field.mul, field.inv
    else:
        args = t.mats
        add, sub, mul, inv = DenseMatrix.add, DenseMatrix.sub, DenseMatrix.matmul, invert

        def const(v):
            return DenseMatrix.identity(field, d).scale(v)
    vals: dict[int, object] = {}
    for i in c.reachable:
        node = c.nodes[i]
        kind = node[0]
        if kind == "const":
            vals[i] = const(node[1])
        elif kind == "var":
            vals[i] = args[node[1] - 1]
        elif kind == "add":
            vals[i] = add(vals[node[1]], vals[node[2]])
        elif kind == "sub":
            vals[i] = sub(vals[node[1]], vals[node[2]])
        elif kind == "mul":
            vals[i] = mul(vals[node[1]], vals[node[2]])
        elif kind == "inv":
            try:
                vals[i] = inv(vals[node[1]])
            except Singular:
                raise Undefined(i) from None
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    out = vals[c.output]
    return DenseMatrix(field, 1, 1, [out]) if d == 1 else out


# -- algebraic branching programs ------------------------------------------


@dataclass(frozen=True)
class Abp:
    """Layered branching program in normal form: vertex layers of widths
    w0, ..., w_d with w0 = w_d = 1, and layers[t] the edges from layer t to
    layer t + 1, stored sparse as {(i, j): form} with no empty form; a form
    is affine, {var index -> int or Fraction} with key 0 the constant part,
    a Fraction only where a value is not an integer."""

    layers: tuple
    widths: tuple
    nvars: int

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(self.widths)

    @cached_property
    def size(self) -> int:
        return sum(self.widths)


def _sum(a: tuple, b: tuple, negate_b: bool) -> tuple:
    """The sum node (a, b, negate_b, widths, k) for a + b or a - b (see
    _fold), laid out by _lay once the whole chain of + and - is known: each
    side is padded to the deeper one's depth by identity layers, and in
    every inner vertex layer b's vertices go after a's."""
    wa, wb = a[-2], b[-2]
    depth = max(len(wa), len(wb)) - 1
    widths = [1] + [(wa[t] if t < len(wa) else 1) + (wb[t] if t < len(wb) else 1)
                    for t in range(1, depth)] + [1]
    return a, b, negate_b, widths, a[-1] + b[-1]


def _lay(op: tuple) -> tuple:
    """An operand as (layers, widths, k).  A sum node's summands are each
    written once, at their offsets, into one list of layers, with the
    identity edges that pad them and the first layer of each b of an a - b
    negated.  Within a layer, edges go in the order the summands stand and
    each padding edge follows the summands it pads, which is the order that
    adding the operands pairwise, innermost sums first, leaves.  Summands
    share an edge only in a sum of depth 1: there each later form is added
    into the earlier one, dropping a coefficient that cancels and an edge
    left empty."""
    if len(op) == 3:
        return op
    widths = op[3]
    out: list[dict] = [{} for _ in range(len(widths) - 1)]
    todo = [(op, [0] * len(widths), False)]     # (operand, offsets, negated)
    while todo:
        node, off, neg = todo.pop()
        depth = len(node[-2]) - 1
        for t in range(depth, len(off) - 1):    # pad to the enclosing depth
            out[t][off[t], off[t + 1]] = {0: 1}
        if len(node) == 5:
            a, b, sub = node[:3]
            wa = a[-2]
            shift = [off[t] + (wa[t] if t < len(wa) else 1) for t in range(1, depth)]
            todo.append((b, [off[0], *shift, off[depth]], neg != sub))
            todo.append((a, off if len(off) == depth + 1 else off[:depth + 1], neg))
            continue
        layers = node[0]
        if neg:
            for form in layers[0].values():
                for k in form:
                    form[k] = -form[k]
        for t, layer in enumerate(layers):
            ro, co, dst = off[t], off[t + 1], out[t]
            for (i, j), form in layer.items():
                into = dst.setdefault((ro + i, co + j), form)
                if into is not form:
                    for k, v in form.items():
                        if x := into.get(k, 0) + v:
                            into[k] = x if x.denominator != 1 else x.numerator
                        else:
                            del into[k]
                    if not into:
                        del dst[ro + i, co + j]
    return out, widths, op[-1]


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
    each finished operand, for the last subs on `pending` (pending[j] is
    variable nx + j + 1): its branching-program layers and widths and how
    many placeholders they hold, or a sum node (_sum) whose layout waits
    until a product, an inverse or the end takes it (_lay), so that every
    chain of + and -, one-layer terms included, is laid out once however it
    nests.  An inverse gate closes its child's top into a sub and leaves a
    placeholder for it.  Each operand owns its lists and forms, so `*`
    extends the left one and _lay adds into the first summand's form.  A
    coefficient is an int unless a constant makes it a true fraction."""
    nx = c.nvars
    pending: list[IdrCircuit] = []
    stack: list[tuple] = []
    count = 0
    nodes = c.nodes
    walk = [c.output]                    # i to open node i, ~i to fold it
    while walk:
        i = walk.pop()
        if i >= 0:
            count += 1
            if count > cap_nodes:
                raise BlowupExceeded(
                    f"tree expansion exceeded {cap_nodes} nodes; the circuit shares "
                    "subexpressions too aggressively for duplication")
            node = nodes[i]
            kind = node[0]
            if kind == "var":
                stack.append(([{(0, 0): {node[1]: 1}}], [1, 1], 0))
            elif kind == "const":
                v = node[1]
                v = v.numerator if v.denominator == 1 else v
                stack.append(([{(0, 0): {0: v}} if v else {}], [1, 1], 0))
            else:
                walk += (~i, node[2], node[1]) if len(node) == 3 else (~i, node[1])
            continue
        node = nodes[~i]
        kind = node[0]
        b = stack.pop()
        if kind == "inv":
            pending.append(_close(*_lay(b), pending, nx))
            stack.append(([{(0, 0): {nx + len(pending): 1}}], [1, 1], 1))
        elif kind == "mul":
            la, wa, ka = _lay(stack.pop())
            lb, wb, kb = _lay(b)
            la += lb
            wa += wb[1:]
            stack.append((la, wa, ka + kb))
        else:
            stack.append(_sum(stack.pop(), b, kind == "sub"))
    return _close(*_lay(stack.pop()), pending, nx)


def _close(layers: list, widths: list, k: int, pending: list, nx: int) -> IdrCircuit:
    """Freeze a finished top whose k placeholders stand for the last k subs
    on pending: take those subs off, and renumber the placeholders to
    nx+1, ..., nx+k, which keeps them in index order.  Each placeholder
    stands in one form and never cancels, so with k of them nx + k is the
    largest variable."""
    base = len(pending) - k
    subs = tuple(pending[base:])
    del pending[base:]
    if k and base:
        layers = [{ij: {(v - base if v > nx else v): a for v, a in f.items()}
                   for ij, f in m.items()} for m in layers]
    nvars = nx + k if k else max((v for m in layers for f in m.values() for v in f),
                                 default=0)
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
    """Map a witness for the reduced circuit back: p_i = sum_j q_{j0} q_{j1}^i
    q_{j0} for i = 1..n, each term (q_{j0} q_{j1}^i) q_{j0} with q_{j1}^i
    carried over from i - 1.  Over Q, int entries give int entries."""
    if q.n < 2 * (h + 1):
        raise ValueError("tuple too short for the reduction parameters")
    qs = q.mats[:2 * (h + 1)]
    accs: list = [None] * n
    for q0, q1 in zip(qs[::2], qs[1::2]):
        pw = q1                               # q1^i for i = 1..n in turn
        for i in range(n):
            if i:
                pw = pw.matmul(q1)
            term = q0.matmul(pw).matmul(q0)
            accs[i] = term if accs[i] is None else accs[i].add(term)
    return MatrixTuple(q.field, q.d, tuple(accs))


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
