"""Exact field arithmetic and dense linear algebra.

Scalars live in a prime field F_p (default p = 2^61 - 1) or in the exact
rationals.  Prime-field elements are canonical residues held as plain
ints; rational elements are fractions.Fraction in lowest terms.  Every
field has a characteristic p, 0 for the rationals.  Matrices are
immutable-by-convention row-major containers with exact rank, inverse,
solve, and Kronecker product.  Over every field rank runs _sparse's
elimination on Python numbers, given p, and solve and invert its one
solver, _sparse.solve; only a matrix that fills in over a prime that
_sparse.fills accepts (2^61 - 1 or one below 2^31) loads the dense
kernel, _modnum.  Every number in an input file is read by parse_number.
Randomness only ever enters through explicitly passed seeded generators.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _sparse

MERSENNE61 = (1 << 61) - 1
DEFAULT_PRIME = MERSENNE61


class Singular(Exception):
    """The matrix (or scalar) has no inverse."""


_NUMBER = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_number(text: str) -> int | Fraction:
    """The value of a number literal: [+-]digits, an int, or
    [+-]digits/digits, a Fraction; no decimal point, exponent or
    underscore.  ValueError for any other text, ZeroDivisionError for a
    zero denominator."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"invalid number {text!r}: expected an integer or num/den")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else int(num)


# Miller-Rabin with the 13 prime bases 2..41 is deterministic below psi_13
# (Sorenson and Webster); the 12 bases 2..37 fail at psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < _MR_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    kind = "prime"

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("prime modulus must be at least 3")
        if self.p >= _MR_BOUND:
            raise ValueError(f"prime modulus must be below {_MR_BOUND}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def normalize(self, a) -> int:
        """a mod p; ValueError for a fraction whose denominator p divides,
        a constant with no value in F_p."""
        if type(a) is int:
            return a % self.p
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise ValueError(f"constant {a} is undefined in F_{self.p}: "
                                 f"{self.p} divides its denominator")
            return a.numerator * pow(a.denominator, -1, self.p) % self.p
        return int(a) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise Singular("division by zero in F_p")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def sample_set_size(self) -> int:
        """Number of values rand draws from (the Schwartz-Zippel set)."""
        return self.p

    def format(self, a: int) -> str:
        return str(a)

    def parse(self, text: str) -> int:
        return self.normalize(parse_number(text))


@dataclass(frozen=True)
class RationalField:
    kind = "rational"
    p = 0                  # the characteristic, which _sparse reads as Q

    def normalize(self, a) -> Fraction:
        return Fraction(a)

    def add(self, a, b) -> Fraction:
        return a + b

    def sub(self, a, b) -> Fraction:
        return a - b

    def mul(self, a, b) -> Fraction:
        return a * b

    def neg(self, a) -> Fraction:
        return -a

    def inv(self, a) -> Fraction:
        if a == 0:
            raise Singular("division by zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def rand(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randrange(-(1 << 16), 1 << 16))

    def sample_set_size(self) -> int:
        """Number of values rand draws from (the Schwartz-Zippel set)."""
        return 1 << 17

    def format(self, a: Fraction) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, text: str) -> Fraction:
        return Fraction(parse_number(text))


Field = PrimeField | RationalField

QQ = RationalField()


def prime_field(p: int = DEFAULT_PRIME) -> PrimeField:
    return PrimeField(p)


def field_name(field: Field) -> str:
    """`prime <p>` or `rational`, as in the file headers."""
    return f"prime {field.p}" if field.kind == "prime" else "rational"


class DenseMatrix:
    """Row-major exact matrix over a fixed field.  Treat as immutable."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence):
        if len(data) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "DenseMatrix":
        return DenseMatrix(field, rows, cols, [field.zero] * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "DenseMatrix":
        m = DenseMatrix.zeros(field, n, n)
        for i in range(n):
            m.data[i * n + i] = field.one
        return m

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        data = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            data.extend(field.normalize(x) for x in r)
        return DenseMatrix(field, nr, nc, data)

    @staticmethod
    def random(field: Field, rows: int, cols: int, rng: random.Random) -> "DenseMatrix":
        return DenseMatrix(field, rows, cols,
                           [field.rand(rng) for _ in range(rows * cols)])

    # -- access --------------------------------------------------------

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.data)

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_shape(other)
        p = self.field.p
        sums = list(map(operator.add, self.data, other.data))
        return DenseMatrix(self.field, self.rows, self.cols,
                           [x % p for x in sums] if p else sums)

    def sub(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_shape(other)
        p = self.field.p
        diffs = list(map(operator.sub, self.data, other.data))
        return DenseMatrix(self.field, self.rows, self.cols,
                           [x % p for x in diffs] if p else diffs)

    def scale(self, c) -> "DenseMatrix":
        f = self.field
        c = f.normalize(c)
        return DenseMatrix(f, self.rows, self.cols, [f.mul(c, x) for x in self.data])

    def neg(self) -> "DenseMatrix":
        f = self.field
        return DenseMatrix(f, self.rows, self.cols, [f.neg(x) for x in self.data])

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        f, p = self.field, self.field.p
        k, m, mul = self.cols, other.cols, operator.mul
        rows = [self.data[i * k:(i + 1) * k] for i in range(self.rows)]
        cols = [other.data[j::m] for j in range(m)]
        # each entry summed unreduced from int 0, then reduced once
        if p:
            out = [sum(map(mul, row, col)) % p for row in rows for col in cols]
        else:
            out = [sum(map(mul, row, col)) for row in rows for col in cols]
        return DenseMatrix(f, self.rows, m, out)

    def transpose(self) -> "DenseMatrix":
        out = [self.field.zero] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.data[i * self.cols + j]
        return DenseMatrix(self.field, self.cols, self.rows, out)

    def _check_shape(self, other: "DenseMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Kronecker product; block (i,j) equals a[i,j] * b."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    f = a.field
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [f.zero] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            v = a.at(i, j)
            if f.is_zero(v):
                continue
            for k in range(b.rows):
                base = (i * b.rows + k) * cols + j * b.cols
                for l in range(b.cols):
                    out[base + l] = f.mul(v, b.at(k, l))
    return DenseMatrix(f, rows, cols, out)


def rank_of(m: DenseMatrix) -> int:
    """Exact rank: _sparse.rank_sparse on the nonzeros, which hands a
    matrix that fills in (_sparse.fills) to the dense kernel."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return _sparse.rank_sparse(_nonzeros(m), m.field.p)


def _nonzeros(m: DenseMatrix) -> dict:
    """The rows {i: {j: value}} of m, no zero stored."""
    c = m.cols
    return {i: {j: x for j, x in enumerate(m.data[i * c:(i + 1) * c]) if x}
            for i in range(m.rows)}


def invert(m: DenseMatrix) -> DenseMatrix:
    """Exact inverse; raises Singular when no inverse exists."""
    if not m.is_square:
        raise ValueError("only square matrices can be inverted")
    return _solve(m, [{i: m.field.one} for i in range(m.rows)])


def solve(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """X with a @ X = b for square invertible a; raises Singular otherwise."""
    if not a.is_square or a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    m = b.cols
    return _solve(a, [{i: x for i, x in enumerate(b.data[c::m]) if x} for c in range(m)])


def _solve(a: DenseMatrix, rhs: list) -> DenseMatrix:
    """The matrix whose columns x solve a x = w for the columns w {i:
    value} of rhs, by _sparse.solve; Singular when a is singular."""
    f, n = a.field, a.rows
    cols = _sparse.solve(_nonzeros(a), n, rhs, f.p)
    if cols is None:
        raise Singular("matrix is singular")
    zero = f.zero
    return DenseMatrix(f, n, len(rhs), [col.get(i, zero) for i in range(n) for col in cols])


def is_invertible(m: DenseMatrix) -> bool:
    if m.rows == 1 == m.cols:            # a scalar, held canonical
        return m.data[0] != 0
    return m.is_square and rank_of(m) == m.rows


@dataclass(frozen=True)
class MatrixTuple:
    """An n-tuple of square matrices of a common dimension d."""

    field: Field
    d: int
    mats: tuple[DenseMatrix, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        for m in self.mats:
            if m.rows != self.d or m.cols != self.d:
                raise ValueError("all members must be square of dimension d")

    @property
    def n(self) -> int:
        return len(self.mats)


def sample_tuple(field: Field, n: int, d: int, rng: random.Random | int) -> MatrixTuple:
    """n independent uniform d x d matrices; deterministic given the seed."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    return MatrixTuple(field, d,
                       tuple(DenseMatrix.random(field, d, d, rng) for _ in range(n)))


# -- matrix-tuple text format ------------------------------------------


def dump_tuple(t: MatrixTuple) -> str:
    lines = [f"field {field_name(t.field)}", f"nvars {t.n}", f"dim {t.d}"]
    for m in t.mats:
        lines.append("")
        for i in range(t.d):
            lines.append(" ".join(t.field.format(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def write_tuple(t: MatrixTuple, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dump_tuple(t))


def parse_field_header(parts: list[str]) -> Field:
    """The field of a `field prime <p>` or `field rational` line, given
    split into words, as the tuple and pencil files begin."""
    if parts[:1] != ["field"]:
        raise ValueError("missing field header")
    if parts[1:] == ["rational"]:
        return QQ
    if len(parts) == 3 and parts[1] == "prime":
        return PrimeField(int(parts[2]))
    raise ValueError("expected `field prime <p>` or `field rational`")


def bounded_int(text: str, what: str, lo: int, hi: int | None = None) -> int:
    v = int(text)
    if v < lo or (hi is not None and v > hi):
        raise ValueError(f"{what} {v} is out of range")
    return v


def _header_int(parts: list[str], key: str, lo: int, hi: int | None = None) -> int:
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"expected `{key} <integer>`")
    return bounded_int(parts[1], key, lo, hi)


# The largest matrix dimension ncrat accepts: a tuple file's `dim`, so that
# a header with no matrices cannot ask eval for a d x d identity of any size,
# and the blow-up dimensions of rit's --max-dim, ncrank's and bootstrap's
# --dims, hitgen's --dim and series-zero's test (each refused above it).
# Every dimension ncrat picks itself is far below: a witness of rit (at most
# 8) or of ncrank (at most 2m for an m x m skew matrix).  At d = 4096, one
# product or elimination of d x d matrices in Python arithmetic takes
# d^3 = 2^36 multiplications.
MAX_DIM = 1 << 12


def parse_tuple(text: str) -> MatrixTuple:
    """Header lines `field prime <p>` (or `field rational`), `nvars <n>` and
    `dim <d>` (d at most MAX_DIM), then n matrices of d rows of d entries
    each; blank lines are ignored.  Malformed input raises ValueError naming
    the line."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    end = len(text.splitlines()) + 1

    def at(i: int) -> tuple[int, list[str]]:
        return lines[i] if i < len(lines) else (end, [])

    no, head = at(0)
    try:
        field = parse_field_header(head)
        no, parts = at(1)
        n = _header_int(parts, "nvars", 0)
        no, parts = at(2)
        d = _header_int(parts, "dim", 1, MAX_DIM)
        mats = []
        for k in range(n):
            rows = []
            for i in range(d):
                no, parts = at(3 + k * d + i)
                if no == end:
                    raise ValueError(f"end of file, expected {n * d} matrix rows")
                if len(parts) != d:
                    raise ValueError(f"row {i + 1} of matrix {k + 1} has "
                                     f"{len(parts)} entries, expected {d}")
                rows.append([field.parse(x) for x in parts])
            mats.append(DenseMatrix.from_rows(field, rows))
        no, parts = at(3 + n * d)
        if no != end:
            raise ValueError(f"expected {n * d} matrix rows, found more")
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line {no}: {exc}") from None
    return MatrixTuple(field, d, tuple(mats))


def read_tuple(path: str) -> MatrixTuple:
    with open(path) as fh:
        return parse_tuple(fh.read())
