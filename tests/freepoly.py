"""Sparse noncommutative polynomials over the free monoid of words.

Words are tuples of 1-based variable indices; the empty word is the
identity monomial.  Polynomials map words to nonzero field scalars and
serve the tests as an exact oracle for small-degree computations: the
series truncations and branching-program expansions of reference.py.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable

from ncrat.field import DenseMatrix, Field, MatrixTuple

Word = tuple[int, ...]

EMPTY: Word = ()


class NcPoly:
    """Finite map word -> coefficient, zero coefficients never stored."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms: dict[Word, object] = {}
        if terms:
            for w, c in terms.items():
                c = field.normalize(c)
                if not field.is_zero(c):
                    self.terms[tuple(w)] = c

    @staticmethod
    def zero(field: Field) -> "NcPoly":
        return NcPoly(field)

    @staticmethod
    def const(field: Field, c) -> "NcPoly":
        return NcPoly(field, {EMPTY: c})

    @staticmethod
    def var(field: Field, i: int) -> "NcPoly":
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return NcPoly(field, {(i,): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def nvars(self) -> int:
        return max((max(w) for w in self.terms if w), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"NcPoly({len(self.terms)} terms, deg {self.degree()})"


def add(a: NcPoly, b: NcPoly) -> NcPoly:
    f = a.field
    out = dict(a.terms)
    for w, c in b.terms.items():
        s = f.add(out.get(w, f.zero), c)
        if f.is_zero(s):
            out.pop(w, None)
        else:
            out[w] = s
    p = NcPoly(f)
    p.terms = out
    return p


def neg(a: NcPoly) -> NcPoly:
    f = a.field
    p = NcPoly(f)
    p.terms = {w: f.neg(c) for w, c in a.terms.items()}
    return p


def sub(a: NcPoly, b: NcPoly) -> NcPoly:
    return add(a, neg(b))


def scale(c, a: NcPoly) -> NcPoly:
    f = a.field
    c = f.normalize(c)
    p = NcPoly(f)
    if not f.is_zero(c):
        p.terms = {w: f.mul(c, v) for w, v in a.terms.items()}
    return p


def mul(a: NcPoly, b: NcPoly) -> NcPoly:
    """Free-algebra product; words concatenate, order preserved."""
    f = a.field
    out: dict[Word, object] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            s = f.add(out.get(w, f.zero), f.mul(ca, cb))
            if f.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
    p = NcPoly(f)
    p.terms = out
    return p


def poly_arith(op: str, a: NcPoly, b) -> NcPoly:
    if op == "add":
        return add(a, b)
    if op == "mul":
        return mul(a, b)
    if op == "scale":
        return scale(b, a)
    raise ValueError(f"unknown op {op!r}")


def coeff_of(fpoly: NcPoly, w: Iterable[int]):
    return fpoly.terms.get(tuple(w), fpoly.field.zero)


def eval_word(w: Word, t: MatrixTuple, counter: list | None = None) -> DenseMatrix:
    out = DenseMatrix.identity(t.field, t.d)
    for i in w:
        out = out.matmul(t.mats[i - 1])
        if counter is not None:
            counter[0] += 1
    return out


def eval_poly(fpoly: NcPoly, t: MatrixTuple, counter: list | None = None) -> DenseMatrix:
    """Substitute x_i -> t.mats[i-1]; words multiply left to right."""
    if fpoly.nvars() > t.n:
        raise ValueError("tuple has fewer matrices than the polynomial has variables")
    acc = DenseMatrix.zeros(t.field, t.d, t.d)
    for w, c in fpoly.terms.items():
        acc = acc.add(eval_word(w, t, counter).scale(c))
    return acc


def standard_polynomial(field: Field, k: int) -> NcPoly:
    """Alternating sum over permutations of x_1 ... x_k."""
    terms: dict[Word, object] = {}
    for sigma in permutations(range(1, k + 1)):
        sign = _perm_sign(sigma)
        terms[tuple(sigma)] = field.normalize(sign)
    return NcPoly(field, terms)


def _perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
