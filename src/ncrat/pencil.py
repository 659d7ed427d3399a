"""Linear pencil realizations.

A pencil L = A0 + sum_i Ai x_i is evaluated at a matrix tuple through
Kronecker products, A0 x I_d + sum Ai x t_i.  Rational functions are
realized as designated entries of pencil inverses; branching programs
embed through a unit-triangular bidiagonal pencil, inverses through a
one-row border gadget, and substitution of realized inverses into a
pencil through a four-block composition whose bottom-right block of the
inverse reproduces the substituted pencil's entire inverse.

The composition requires every placeholder variable to occur in exactly
one entry of the host pencil.  That is precisely the shape produced by
the tree-normalized compiler (each inverse gate feeds one edge of the
top branching program); sharing a placeholder across entries is rejected
rather than silently duplicated.  The compiler sizes every level first,
then writes each base pencil, border and link once, at its offset in one
map, so compile time is linear in the inversion height.  The same walk
writes either layout of the composition: the paper's (compile_idrrsc, for
`ncrat compile`, ncrank and the series), or rit's condensed one
(compile_condensed), its Schur complement at the unit pivots of its two
identity blocks, which realizes the same element.

Storage is sparse, (row, col) -> {k: value} with no zero stored: the
compiler's pencils hold a few nonzeros per row at sizes in the thousands.
Builders write blocks into that map with `place_block`, the compiler its
branching programs' entries straight at their offsets, and nothing writes
to a pencil's entries once it is built, so pencils share entry dicts.  A
PencilOracle reduces a pencil once, on first use, by exact elimination at
constant pivots, which reads those dicts in place and copies one only to
write fill into it; most of the compiler's pivots fill in, mostly scaling
by +-1, which needs no multiplication.  A realized entry owns one, which
keeps its element (RealizedEntry.oracle).  Evaluations at a matrix tuple
are built as sparse rows straight from the entries (_SparseEval), over
every field, Q included: an oracle ranks its core's, an entry's value is
solved from them by _sparse.solve, which hands rows that fill in to the
dense kernel, and `eval_pencil` scatters them into a dense matrix.  Only a
core whose evaluations fill in over a prime the dense kernel serves
(_sparse.fills) is evaluated by that kernel instead.  From the same rows the oracle can look
for a shrunk subspace of its core (the second Wong sequence), which bounds
the pencil's rank at every tuple and, shrinking by one dimension, proves it
singular; check_shrunk re-checks one by exact ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _sparse
from .circuit import MAX_VARS, Abp, IdrCircuit
from .field import (DenseMatrix, Field, MatrixTuple, Singular, bounded_int,
                    field_name, parse_field_header)


class DimensionMismatch(Exception):
    """Placeholder count of the host pencil differs from the realized list."""


class DisjointnessViolation(ValueError):
    """A placeholder variable occurs in more than one host pencil entry."""


Entries = dict            # (row, col) -> {k: value}, see the module docstring


@dataclass(frozen=True)
class LinearPencil:
    """A0 + sum_k Ak x_k, all square of equal size, stored as the nonzero
    entries (row, col) -> {k: value} (0-indexed, values canonical field
    elements).  Treat as immutable: builders share entry dicts."""

    field: Field
    size: int
    nvars: int
    entries: Entries

    @property
    def coeffs(self) -> tuple[DenseMatrix, ...]:
        """Dense A0..An, built on each access and never kept: a read-only
        view for checks and tracing, size^2 (nvars+1) slots long."""
        N = self.size
        mats = tuple(DenseMatrix.zeros(self.field, N, N)
                     for _ in range(self.nvars + 1))
        for (r, c), e in self.entries.items():
            for k, v in e.items():
                mats[k].data[r * N + c] = v
        return mats


def place_block(dst: Entries, block: Entries, ro: int = 0, co: int = 0) -> None:
    """Write block, a map (i, j) -> {k: value}, into dst at offset (ro, co).
    Each component is assigned, as in a dense coefficient matrix: other
    components already at (ro + i, co + j) stay, a zero value removes one."""
    shifted = {(ro + i, co + j): e for (i, j), e in block.items()}
    for key in shifted.keys() & dst.keys():
        shifted[key] = {**dst[key], **shifted[key]}
    dst.update(shifted)
    # canonical zeros compare equal to 0 in F_p and in Q
    for key in [key for key, e in shifted.items() if not e or 0 in e.values()]:
        e = {k: v for k, v in shifted[key].items() if v != 0}
        if e:
            dst[key] = e
        else:
            del dst[key]


def dense_block(m: DenseMatrix, k: int) -> Entries:
    """The nonzero entries of m as coefficient k."""
    return {divmod(q, m.cols): {k: v} for q, v in enumerate(m.data) if v != 0}


def pencil_from_rows(field: Field, rows_per_coeff: list) -> LinearPencil:
    """The pencil with dense coefficients A0..An given as lists of rows."""
    mats = [DenseMatrix.from_rows(field, rows) for rows in rows_per_coeff]
    size = mats[0].rows
    if any(m.rows != size or m.cols != size for m in mats):
        raise ValueError("coefficient matrices must be size x size")
    entries: Entries = {}
    for k, m in enumerate(mats):
        place_block(entries, dense_block(m, k))
    return LinearPencil(field, size, len(mats) - 1, entries)


def eval_pencil(L: LinearPencil, t: MatrixTuple) -> DenseMatrix:
    """A0 x I_d + sum Ai x t_i, an (s d) x (s d) matrix: the sparse rows of
    _SparseEval scattered into a dense one."""
    n = L.size * t.d
    out = DenseMatrix.zeros(L.field, n, n)
    for i, row in _SparseEval(L)(t).items():
        for j, x in row.items():
            out.data[i * n + j] = x
    return out


@dataclass(frozen=True)
class RealizedEntry:
    """A pencil with a designated entry (row, col), 1-indexed: the realized
    element is ((L^{-1}))_{row, col}, a d x d block once evaluated.

    `oracle` (built once) is L's PencilOracle whose reduction never pivots
    column row - 1 or row col - 1: with the pivot block P constant, the rest
    of L^{-1} is the complement's inverse, so (L^{-1})_{row, col} =
    (core^{-1})_{row', col'} at its `kept` (row', col'), and rank L(t) =
    base d + rank core(t).  value_at solves from its rows, ncrank probes
    with it, and `reduced` is its core as the same element's entry."""

    pencil: LinearPencil
    row: int
    col: int

    def __post_init__(self):
        if not (1 <= self.row <= self.pencil.size and 1 <= self.col <= self.pencil.size):
            raise ValueError("designated entry out of range")

    @property
    def size(self) -> int:
        return self.pencil.size

    @property
    def nvars(self) -> int:
        return self.pencil.nvars

    @cached_property
    def oracle(self) -> PencilOracle:
        return PencilOracle(self.pencil, (self.row, self.col))

    @property
    def reduced(self) -> RealizedEntry:
        return RealizedEntry(self.oracle.core, *self.oracle.kept)

    def value_at(self, t: MatrixTuple) -> DenseMatrix:
        """The (row, col) block of L(t)^{-1}; raises Singular when L(t) is not
        invertible (the element is undefined at t).

        Over every field, the d columns needed are solved by _sparse.solve
        from the oracle's sparse rows of core(t), with the identity's block
        column col' as right-hand sides."""
        oracle, d = self.oracle, t.d
        (row, col), f = oracle.kept, oracle.field
        left = (col - 1) * d
        cols = _sparse.solve(oracle._eval_rows(t), oracle.core.size * d,
                             [{left + b: f.one} for b in range(d)], f.p)
        if cols is None:
            raise Singular("matrix is singular")
        top, zero = (row - 1) * d, f.zero
        return DenseMatrix(f, d, d, [cols[b].get(top + a, zero)
                                     for a in range(d) for b in range(d)])


# -- branching program to pencil ---------------------------------------------


def from_abp(a: Abp, field: Field, nvars: int | None = None) -> RealizedEntry:
    """Unit upper-triangular bidiagonal pencil with the branching program's
    polynomial realized in the upper right corner; invertible at every
    tuple."""
    n = a.nvars if nvars is None else nvars
    entries = dict(_abp_entries(a, field, 0, max(n, a.nvars))[0])
    return RealizedEntry(LinearPencil(field, a.size, n, entries), 1, a.size)


def _abp_entries(a: Abp, field: Field, o: int, nx: int, m: int = 0):
    """from_abp's entries for a at offset (o, o), as ((row, col), entry) in
    the order it writes them: the unit diagonal, then each layer's edges,
    whose forms are negated and normalized, zeros dropped.  Variable nx + q,
    1 <= q <= m, is a placeholder: it is left out of its entry, and occ[q -
    1] is its (row, col, value) relative to o, or None where it is absent.
    Returns (entries, occ)."""
    neg, norm = field.neg, field.normalize
    unit = {0: field.one}
    out = [((q, q), unit) for q in range(o, o + a.size)]
    occ: list = [None] * m
    off = o
    for layer, w in zip(a.layers, a.widths):
        for (i, j), form in layer.items():
            e = {}
            for k, v in form.items():
                x = neg(norm(v))
                if not x:
                    continue
                if k <= nx:
                    e[k] = x
                elif occ[k - nx - 1] is None:
                    occ[k - nx - 1] = (off - o + i, off - o + w + j, x)
                else:
                    raise DisjointnessViolation(
                        f"placeholder variable {k} occurs in more than one "
                        "entry of the host pencil")
            if e:
                out.append(((off + i, off + w + j), e))
        off += w
    return out, occ


# -- inverse gadgets and composition ------------------------------------------


def realize_inverse(g: RealizedEntry) -> RealizedEntry:
    """One-row, one-column border around g's pencil; the bottom-right corner
    of the inverse is g^{-1}.  Invertible at t if g's pencil and g(t) are,
    and may be if not: around inv(x1 - x1) it is invertible everywhere."""
    f = g.pencil.field
    s = g.size
    entries = dict(g.pencil.entries)
    entries[g.col - 1, s] = {0: f.one}              # e_v column
    entries[s, g.row - 1] = {0: f.neg(f.one)}       # -e_u^T row
    return RealizedEntry(LinearPencil(f, s + 1, g.nvars, entries), s + 1, s + 1)


@dataclass(frozen=True)
class RealizedGrid:
    """All s^2 entries of the inverse of a substituted pencil, realized in
    one pencil starting at a common offset."""

    pencil: LinearPencil
    offset: int
    s: int

    def entry(self, i: int, j: int) -> RealizedEntry:
        if not (1 <= i <= self.s and 1 <= j <= self.s):
            raise ValueError("grid index out of range")
        return RealizedEntry(self.pencil, self.offset + i, self.offset + j)


def _y_occurrences(L: LinearPencil, nx: int) -> list[tuple[int, int, object] | None]:
    """For each placeholder nx+1..nvars, its one (row, col, coefficient)."""
    occ: list = [None] * (L.nvars - nx)
    for (i, j), e in L.entries.items():
        for k, v in e.items():
            if k > nx:
                if occ[k - nx - 1] is not None:
                    raise DisjointnessViolation(
                        f"placeholder variable {k} occurs in more than one "
                        "entry of the host pencil")
                occ[k - nx - 1] = (i, j, v)
    return occ


def _place_composition(entries: Entries, o: int, field: Field, s: int,
                       host: list, occ: list, shapes: list[tuple[int, int, int]],
                       paper: bool = True) -> list[int]:
    """Write compose's blocks at offset o, all but the realized pencils,
    given as (size, row, col); return where each pencil goes.  In H, each
    pencil has realize_inverse's border.  The host, of size s, comes as its
    entries at offset (oL, oL) without its placeholders, oL the last s rows
    of the composition, and occ[k - 1], the (row, col, value) in the host of
    its k-th placeholder, or None.

    The paper layout [I | H | I | L0] (compose, compile_idrrsc): the first
    identity feeds the inverse gadgets (columns weighted by the placeholder
    coefficients), the gadget exits feed the second identity at the host
    entry that the placeholder occupies, and the borders close the loop
    through the constant-plus-x part L0 of the host.  The identities are
    there so that every entry of the inverse grid is realized.

    Without paper, the condensed layout [H | L0] (compile_condensed): the
    Schur complement of the paper layout at its 2 s^2 unit pivots, row o + q
    of the first identity and row o3 + q of the second, written directly.
    Row o + q holds only the link beta to its gadget's exit and column o +
    q only the -1 from L0's row i (q = i s + j); row o3 + q holds only the
    1 into L0's column j and column o3 + q only the 1 from the exit.  So
    the complement is the paper layout without the identities, a
    placeholder at host entry (i0, j0) linked by (oL + i0, exit) = beta and
    (exit, oL + j0) = -1.  At every tuple of dimension d the paper pencil's
    rank is 2 s^2 d plus the condensed one's, and the inverse blocks on the
    rows and columns kept, L0's included, are the same."""
    one, minus_one = field.one, field.neg(field.one)
    ss = s * s if paper else 0
    o3 = o + ss + sum(size + 1 for size, _, _ in shapes)
    oL = o3 + ss
    for q in range(ss):
        entries[(o + q, o + q)] = entries[(o3 + q, o3 + q)] = {0: one}
    offsets, off = [], o + ss
    for (size, row, col), found in zip(shapes, occ):
        offsets.append(off)
        corner = off + size                 # the gadget's exit
        entries[(off + col - 1, corner)] = {0: one}
        entries[(corner, off + row - 1)] = {0: minus_one}
        if found is not None:
            i0, j0, beta = found
            if paper:
                entries[(o + i0 * s + j0, corner)] = {0: beta}
                entries[(corner, o3 + i0 * s + j0)] = {0: one}
            else:
                entries[(oL + i0, corner)] = {0: beta}
                entries[(corner, oL + j0)] = {0: minus_one}
        off = corner + 1
    entries.update(host)
    for i in range(s if paper else 0):
        for j in range(s):
            entries[(o3 + i * s + j, oL + j)] = {0: one}
            entries[(oL + i, o + i * s + j)] = {0: minus_one}
    return offsets


def compose(L: LinearPencil, gs: list[RealizedEntry], nx: int) -> RealizedGrid:
    """Substitute g_k^{-1} for the placeholder variable nx+k of L.  The
    result realizes every entry of L(x, g_1^{-1}, ..., g_m^{-1})^{-1} at
    offset 2 s^2 + shat, in a pencil of size exactly
    sum_k size(g_k) + m + 2 s^2 + s; the layout is _place_composition's
    paper layout."""
    m = L.nvars - nx
    if m != len(gs):
        raise DimensionMismatch(
            f"host pencil has {m} placeholder variables, {len(gs)} realizations given")
    for g in gs:
        if g.nvars > nx:
            raise DimensionMismatch(
                "realized entries may only use the host's x variables")
    if m == 0:
        return RealizedGrid(L, 0, L.size)
    s = L.size
    N = sum(g.size + 1 for g in gs) + 2 * s * s + s
    host = [((N - s + i, N - s + j), x) for (i, j), e in L.entries.items()
            if (x := {k: v for k, v in e.items() if k <= nx})]
    entries: Entries = {}
    shapes = [(g.size, g.row, g.col) for g in gs]
    offsets = _place_composition(entries, 0, L.field, s, host, _y_occurrences(L, nx), shapes)
    for g, off in zip(gs, offsets):
        place_block(entries, g.pencil.entries, off, off)
    return RealizedGrid(LinearPencil(L.field, N, nx, entries), N - s, s)


def _compile(idr: IdrCircuit, field: Field, paper: bool) -> tuple[RealizedEntry, int]:
    """The compiled entry in _place_composition's paper or condensed layout,
    and the unit pivots, 2 s^2 per composition, that the condensed layout
    leaves out.  Each node is realized at (size - s + 1, size), s its top's
    size, so the sizes are worked out first, subs first; then one pass from
    the root writes each block once.  Both walks are flat lists, not
    recursion."""
    if not idr.subs:
        return from_abp(idr.top, field, nvars=idr.nx), 0
    order = [idr]
    for node in order:                   # hosts before their subs
        order.extend(node.subs)
    size: dict[int, int] = {}            # by id: its dict forms make an IdrCircuit unhashable
    pivots = 0
    for node in reversed(order):
        s = node.top.size
        ident = 2 * s * s if node.subs else 0          # the level's identity rows
        if not paper:
            ident, pivots = 0, pivots + ident
        size[id(node)] = sum(size[id(g)] + 1 for g in node.subs) + ident + s
    entries: Entries = {}
    at = {id(idr): 0}
    for node in order:
        o, s = at[id(node)], node.top.size
        host, occ = _abp_entries(node.top, field, o + size[id(node)] - s, node.nx, node.m)
        if not node.subs:
            entries.update(host)
            continue
        shapes = [(size[id(g)], size[id(g)] - g.top.size + 1, size[id(g)])
                  for g in node.subs]
        offsets = _place_composition(entries, o, field, s, host, occ, shapes, paper)
        at.update(zip(map(id, node.subs), offsets))
    N = size[id(idr)]
    return RealizedEntry(LinearPencil(field, N, idr.nx, entries),
                         N - idr.top.size + 1, N), pivots


def compile_idrrsc(idr: IdrCircuit, field: Field) -> RealizedEntry:
    """Compile the recursive decomposition into a single pencil realization:
    branching-program base case, composition step for the inverses, in the
    paper layout (see _place_composition).  This is the construction that
    `ncrat compile` writes and that ncrank, bootstrap and series consume."""
    return _compile(idr, field, paper=True)[0]


def compile_condensed(idr: IdrCircuit, field: Field) -> tuple[RealizedEntry, int]:
    """compile_idrrsc's element in _place_composition's condensed layout,
    and the number P of unit pivots it leaves out, 2 s^2 per composition, s
    the host's size: the pencil is P rows smaller and its rank at every
    tuple of dimension d is the paper pencil's less P d.  rit's gate needs
    no other entry of the inverse grid, and its reduction would pivot the
    identities away."""
    return _compile(idr, field, paper=False)


# -- structural rank oracle ---------------------------------------------------


class _SparseEval:
    """Evaluations of a pencil at matrix tuples as sparse rows {i: {j:
    value}} over any field, built straight from its entries: an entry with
    only a constant v0 is the diagonal v0 of its d x d block, one with
    variables the block v0 I + sum_k vk t_k, zeros dropped."""

    def __init__(self, L: LinearPencil):
        self.field = L.field
        self.nvars = L.nvars
        # per row, its entries with a variable (col, constant, ((k, value),
        # ...)) and its constant-only entries (col, constant)
        rows = self._rows = [([], []) for _ in range(L.size)]
        nvar = 0
        for (r, c), e in sorted(L.entries.items()):
            if len(e) > (0 in e):
                ks = sorted(e.items())
                rows[r][0].append((c, ks.pop(0)[1] if ks[0][0] == 0 else 0, ks))
                nvar += 1
            else:
                rows[r][1].append((c, e[0]))
        self._nvar, self._nconst = nvar, len(L.entries) - nvar

    def nnz(self, d: int) -> int:
        """The most nonzeros the rows at dimension d can hold."""
        return self._nvar * d * d + self._nconst * d

    def __call__(self, t: MatrixTuple) -> dict:
        """The nonzeros of A0 x I_d + sum Ai x t_i, every row present, built
        slot by slot: slot (a, b) of the block at (r, c) is entry (r d + a,
        c d + b), and one pass over the entries fills it in every block."""
        if self.nvars > t.n:
            raise ValueError("tuple has fewer matrices than the pencil has variables")
        d, p = t.d, self.field.p
        out = {i: {} for i in range(len(self._rows) * d)}
        for q in range(d * d):                   # slot (a, b) of every block
            a, b = divmod(q, d)
            s = [0] + [m.data[q] for m in t.mats]           # t_k[a, b] at k
            for r, (var, const) in enumerate(self._rows):
                row = out[r * d + a]
                for c, x, ks in var:
                    if a != b:
                        x = 0
                    for k, v in ks:
                        x += v * s[k]
                    if p:
                        x %= p
                    if x:
                        row[c * d + b] = x
                if a == b:
                    for c, v0 in const:
                        row[c * d + a] = v0
        return out


def _reduce(L: LinearPencil, keep: tuple[int, int] | None = None):
    """Exact constant-pivot elimination: (base, core, kept, full) with rank
    L(t) = base * d + rank core(t) at every tuple t of dimension d.

    A row all of whose entries are constant (no k >= 1 component) is
    pivoted at its lowest column; a column all of whose entries are
    constant at its lowest row.  Either way the pivot (r, c) holds a
    constant alpha, and one of row r and column c is constant, so the Schur
    complement (i, c2) -= e(i, c) e(r, c2) / alpha stays affine; row r and
    column c leave and contribute exactly d to the rank.  Constant rows are
    drained before constant columns.  keep = (row, col) never pivots column
    row - 1 or row col - 1, and kept = (row', col') is where the core holds
    the same element; kept is None when nothing is kept.  full says whether
    the elimination pivots every row, which makes L(t) invertible at every
    tuple: with nothing kept, whether the core is empty; with keep, the
    elimination goes on with the keep released once the core is taken, and
    full says whether that core then reduces away.

    The entries are read from per-row and per-column indexes onto L's own
    entry dicts, and an entry is copied only when the complement writes to
    it, so L is left as it was.  On the compiler's pencils most pivots fill
    in (654 of the 779 on the seed-401 rit-corpus gates), mostly one fresh
    entry each, e scaled by s.  Their constants are mostly +-1, and so are
    alpha and s: a fresh entry at s = 1 is the dict e itself (no dict is
    written in place), one at s = -1 is negated, and only other scalars,
    1 / alpha included, need multiplications."""
    f, n, p = L.field, L.size, L.field.p
    minus_one = f.neg(f.one)
    kc, kr = (keep[0] - 1, keep[1] - 1) if keep else (-1, -1)
    rows: list = [{} for _ in range(n)]     # r -> {c: entry}; None once pivoted
    cols: list = [{} for _ in range(n)]     # c -> {r: entry}; None once pivoted
    rvar = [0] * n                          # entries with a variable, per row
    cvar = [0] * n                          # and per column
    for (r, c), e in L.entries.items():
        rows[r][c] = cols[c][r] = e
        if len(e) > (0 in e):
            rvar[r] += 1
            cvar[c] += 1
    # worklists of rows and columns that turned constant, popped from the end
    todo_rows = [r for r in range(n - 1, -1, -1) if not rvar[r]]
    todo_cols = [c for c in range(n - 1, -1, -1) if not cvar[c]]
    base, out = 0, None
    while True:
        while True:
            if todo_rows:
                r = todo_rows.pop()
                row = rows[r]
                if not row or rvar[r] or r == kr:
                    continue
                c = min(row)
                if c == kc and (c := min(row.keys() - {kc}, default=-1)) < 0:
                    continue
                col = cols[c]
            elif todo_cols:
                c = todo_cols.pop()
                col = cols[c]
                if not col or cvar[c] or c == kc:
                    continue
                r = min(col)
                if r == kr and (r := min(col.keys() - {kr}, default=-1)) < 0:
                    continue
                row = rows[r]
            else:
                break
            rows[r] = cols[c] = None
            alpha = row.pop(c)[0]
            del col[r]
            base += 1
            by_row = not rvar[r]            # row r is constant
            if by_row:
                for c2 in row:
                    del cols[c2][r]
            else:
                for c2, e in row.items():
                    del cols[c2][r]
                    if len(e) > (0 in e):
                        cvar[c2] -= 1
                        if not cvar[c2]:
                            todo_cols.append(c2)
            if not cvar[c]:                 # column c is constant
                for i in col:
                    del rows[i][c]
            else:
                for i, e in col.items():
                    del rows[i][c]
                    if len(e) > (0 in e):
                        rvar[i] -= 1
                        if not rvar[i]:
                            todo_rows.append(i)
            if not (row and col):
                continue
            # each new entry is old + s e, s = -(the pair's constant) / alpha:
            # b's when row r is constant (every b is then), else a's, and
            # s = +-1 needs no multiplication
            ainv = alpha if alpha == 1 or alpha == minus_one else f.inv(alpha)
            m = p - ainv if p else -ainv
            for i, a in col.items():
                row_i = rows[i]
                for c2, b in row.items():
                    s, e = (b[0], a) if by_row else (a[0], b)
                    s = s if m == 1 else (p - s if p else -s) if m == minus_one \
                        else s * m % p if p else s * m
                    old = row_i.get(c2)
                    if old is None:             # a fresh entry: e scaled, no zero
                        if s != 1:
                            new = {}
                            for k, v in e.items():
                                new[k] = (p - v if p else -v) if s == minus_one \
                                    else s * v % p if p else s * v
                            e = new
                        row_i[c2] = cols[c2][i] = e
                        if len(e) > (0 in e):
                            rvar[i] += 1
                            cvar[c2] += 1
                        continue
                    new = dict(old)
                    for k, v in e.items():
                        x = new.get(k, 0) + s * v
                        if p:
                            x %= p
                        if x:
                            new[k] = x
                        else:
                            new.pop(k, None)
                    if new:
                        row_i[c2] = cols[c2][i] = new
                    else:
                        del row_i[c2], cols[c2][i]
                    delta = (len(new) > (0 in new)) - (len(old) > (0 in old))
                    if delta:
                        rvar[i] += delta
                        cvar[c2] += delta
                        if not rvar[i]:
                            todo_rows.append(i)
                        if not cvar[c2]:
                            todo_cols.append(c2)
        if out is None:
            live = [r for r in range(n) if rows[r] is not None]
            cmap = {c: j for j, c in enumerate(c for c in range(n) if cols[c] is not None)}
            entries = {(i, cmap[c]): e for i, r in enumerate(live)
                       for c, e in rows[r].items()}
            kept = (cmap[kc] + 1, live.index(kr) + 1) if keep else None
            out = base, LinearPencil(f, len(live), L.nvars, entries), kept
        if kc == kr == -1:
            return (*out, base == n)
        # the core is taken and shares no dict the fill writes to: release
        # the keep and pivot on
        kc = kr = -1
        todo_rows = [r for r in range(n - 1, -1, -1) if rows[r] is not None and not rvar[r]]
        todo_cols = [c for c in range(n - 1, -1, -1) if cols[c] is not None and not cvar[c]]


# what PencilOracle sets when it reduces, on the first read of one
_REDUCED = frozenset(("base", "core", "kept", "invertible_everywhere", "_eval_rows"))


class PencilOracle:
    """Rank and invertibility of a pencil at matrix tuples, through an
    exact structural reduction done once, on first use: rank(L(t)) =
    base * d + rank(core(t)) for every tuple t.  The reduction (_reduce)
    pivots out constant rows, then constant columns, reading L's entries in
    place and doing field arithmetic only where a pivot fills in, the same
    code over every field; L is not modified, and the core may share entry
    dicts with it; with keep, it is a realized entry's one reduction (see
    RealizedEntry).  Over every field, core(t) is built as sparse rows
    straight from the core's entries and ranked by _sparse.rank_sparse,
    unless it fills in over a prime the dense kernel supports
    (_sparse.fills) and goes there.  rank_at keeps the record of its last
    sparse elimination, with no inverse taken, for shrunk_subspace at the
    same tuple.

    pivoted counts the unit pivots L's builder already took (those
    compile_condensed leaves out of rit's gate), and size and base count
    them too.  invertible_everywhere is _reduce's full: the elimination,
    finished with any keep released, pivots every row.

    size is known at construction; the reduction runs at the first read of
    base, core, kept or invertible_everywhere, or the first rank_at or
    search, and sets them as plain attributes.  Until then the oracle holds
    L, so an oracle that is never asked (rit's gate at a formula its first
    evaluation hits) costs no elimination."""

    def __init__(self, L: LinearPencil, keep: tuple[int, int] | None = None,
                 pivoted: int = 0):
        self.field = L.field
        self.size = L.size + pivoted
        self._unreduced = (L, keep, pivoted)
        self._coeffs = None          # _modnum.pencil_coeffs(core), once needed
        self._by_col = None          # column -> [(k - 1, row, value)] for k >= 1, once searched
        self._last = None            # (t, _sparse.Record of core(t)), the last eliminated

    def __getattr__(self, name: str):
        """Reached only for an attribute not set: the reduction's, before
        it has run."""
        if name not in _REDUCED:
            raise AttributeError(name)
        L, keep, pivoted = self._unreduced
        base, self.core, self.kept, self.invertible_everywhere = _reduce(L, keep)
        self.base = base + pivoted
        self._eval_rows = _SparseEval(self.core)
        del self._unreduced
        return self.__dict__[name]

    @property
    def core_size(self) -> int:
        return self.core.size

    def _dense_at(self, d: int) -> bool:
        """Whether core(t) at dimension d is evaluated densely: rank_sparse
        would hand its rows to rank_mod as they are.  On a dense core at
        n = 180, building and scattering them back cost ~40% of rank_mod,
        evaluating it densely 5-17%."""
        n = self.core.size * d
        return _sparse.fills(self.field.p, n, n, self._eval_rows.nnz(d))

    def rank_at(self, t: MatrixTuple) -> int:
        """base d + rank core(t).  Where core(t) is eliminated sparse to the
        end, its record replaces the last tuple's, kept with t."""
        d = t.d
        self._last = None
        if self.core.size == 0:
            return self.base * d
        if self._dense_at(d):
            from . import _modnum
            if self._coeffs is None:
                self._coeffs = _modnum.pencil_coeffs(self.core)
            ev = _modnum.eval_pencil_mod(self._coeffs, _modnum.stack(t), d, self.field.p)
            return self.base * d + _modnum.rank_mod(ev, self.field.p)
        record = _sparse.Record()
        rank = _sparse.rank_sparse(self._eval_rows(t), self.field.p, record, hand_off=True)
        self._last = (t, record) if len(record) == rank else None
        return self.base * d + rank

    def is_invertible_at(self, t: MatrixTuple) -> bool:
        return self.rank_at(t) == self.size * t.d

    def shrunk_subspace(self, t: MatrixTuple, deficit: int = 1) -> DenseMatrix | None:
        """A shrunk subspace S of the core with dim S - dim sum_k A_k S >=
        deficit, found from A = core(t) and returned as a core.size x dim S
        matrix whose columns are S's reduced echelon basis (which depends
        only on the span), once check_shrunk accepts it; None when none is
        found, and where rank_at evaluates core(t) densely, because the
        search stays sparse to the end (n = 120, every core entry holding a
        variable, d = 1: 1.5-1.7 s, against 0.02 s for a warm rank_at).  The
        search is exact over every field, Q included.

        What S proves, with A_0 the constant term: at any tuple t' of any
        dimension e, core(t') = sum_k A_k x t'_k (t'_0 = I) maps S x F^e
        into (sum_k A_k S) x F^e, so its kernel has dimension at least
        deficit * e, and the pencil's rank at t' is at most
        (base + core.size - deficit) * e.  With deficit 1 the pencil is
        singular at every tuple; with deficit core.size - (r - base) its
        noncommutative rank is at most r.

        How S is found: the second Wong sequence of IQS18 on A, over
        subspaces T of F^n (n = core.size).  From T_0 = 0, U = A^-1(T x F^d)
        holds the u with A u in T x F^d, S is the span of the columns of
        each u of U read as an n x d matrix (u[i d + a] at (i, a)), the
        least S with U inside S x F^d, and T' = sum_k A_k S.  A is factored
        once: the search reads the record rank_at kept at this tuple object,
        or has rank_sparse record an elimination of A, and U is ker A, read
        off the pivot rows, plus a preimage (_sparse.preimage) of tau x e_a
        for each direction tau of T and each a < d.  T and S only grow, so a
        step solves for T's new directions only, and S's new directions are
        the slices of their preimages that extend S.  T' needs only the
        images A_k s, k >= 1, of S's new directions, added to T's reduced
        echelon basis: slice b of A u is A_0 s_b + sum_(k >= 1, a)
        t_k[b, a] A_k s_a, which lies in T, so A_0 S lies in T + sum_(k >=
        1) A_k S, and T lies in T'.  Within n steps the sequence meets an S
        that shrinks by deficit, stops growing, or gives up when a preimage
        is missing: T x F^d has left im A (some tuple of a larger dimension
        then has a larger rank).  While T x F^d stays in im A, dim U = nd -
        rank A + d dim T <= d dim S, so once T stops growing dim S - dim
        sum_k A_k S >= n - rank A / d, which is the deficit asked for when
        rank A = (r - base) d."""
        n, d = self.core.size, t.d
        if n == 0 or self._dense_at(d):
            return None
        p = self.field.p
        if self._last is None or self._last[0] is not t:
            self._last = (t, _sparse.Record())
            _sparse.rank_sparse(self._eval_rows(t), p, self._last[1])
        record = self._last[1]
        S: dict = {}                    # S's reduced echelon basis
        T: dict = {}                    # T's reduced echelon basis
        fresh = self._new_slices(S, _sparse.kernel(record, n * d, p).values(), d)
        while True:
            grown = [c for s in fresh for img in self._images(s)
                     if (c := _sparse.extend_basis(T, img, p)) is not None]
            if len(S) - len(T) >= deficit:
                break
            if not grown:
                return None
            solved = []
            for c in grown:
                for a in range(d):
                    x = _sparse.preimage(record, {i * d + a: v for i, v in T[c].items()}, p)
                    if x is None:
                        return None
                    solved.append(x)
            fresh = self._new_slices(S, solved, d)
        basis = DenseMatrix.zeros(self.field, n, len(S))
        for q, c in enumerate(sorted(S)):
            for i, v in S[c].items():
                basis.data[i * len(S) + q] = v
        return basis if check_shrunk(self.core, basis, deficit) else None

    def _new_slices(self, S: dict, vectors, d: int) -> list:
        """New directions of S from the slices (x[i d + a] at i, a < d) of
        the vectors x over F^(nd): the slices extend S's reduced echelon
        basis, and its new rows are the new directions."""
        added = []
        for x in vectors:
            slices: dict[int, dict] = {}
            for j, v in x.items():
                i, a = divmod(j, d)
                slices.setdefault(a, {})[i] = v
            added += [c for sl in slices.values()
                      if (c := _sparse.extend_basis(S, sl, self.field.p)) is not None]
        return [S[c] for c in added]

    def _images(self, s: dict) -> list:
        """The images A_k s, k = 1..nvars, of s {i: value} over F^n that are
        not 0, as {row: value}.  A_0 s is not needed: the sequence's T holds
        A_0 S modulo sum_(k >= 1) A_k S (see shrunk_subspace)."""
        p = self.field.p
        if self._by_col is None:
            self._by_col = {}
            for (r, c), e in self.core.entries.items():
                self._by_col.setdefault(c, []).extend((k - 1, r, v) for k, v in e.items() if k)
        images = [{} for _ in range(self.core.nvars)]     # A_k s at k - 1, sums
        for c, x in s.items():
            for k, r, v in self._by_col.get(c, ()):
                img = images[k]
                img[r] = img.get(r, 0) + v * x
        out = []
        for img in images:
            img = {r: y % p for r, y in img.items()} if p else img
            img = {r: y for r, y in img.items() if y}
            if img:
                out.append(img)
        return out


def check_shrunk(core: LinearPencil, S: DenseMatrix, deficit: int = 1) -> bool:
    """Whether the column span of S (core.size rows) is a shrunk subspace
    of the pencil core with the given deficit: rank S - rank [A_0 S | A_1 S
    | ... | A_m S] >= deficit, both exact ranks by _sparse.rank_sparse on
    sparse rows, the products taken entry by entry from core.entries.  An
    accepted S proves rank core(t) <= (core.size - deficit) e at every
    tuple t of every dimension e; with deficit 1, that core is singular
    (see PencilOracle.shrunk_subspace)."""
    if S.rows != core.size:
        raise ValueError("subspace basis must have one row per pencil row")
    p, s = core.field.p, S.cols
    by_row = [[(q, x) for q, x in enumerate(S.data[c * s:(c + 1) * s]) if x]
              for c in range(S.rows)]
    columns: dict[int, dict] = {q: {} for q in range(s)}      # S's columns
    for c, row in enumerate(by_row):
        for q, x in row:
            columns[q][c] = x
    images = [{} for _ in range((core.nvars + 1) * s)]      # A_k S e_q at k s + q
    for (r, c), e in core.entries.items():
        row = by_row[c]
        for k, v in e.items():
            at = k * s
            for q, x in row:
                img = images[at + q]
                y = img.get(r, 0) + v * x
                img[r] = y % p if p else y
    images = {m: {r: y for r, y in img.items() if y} for m, img in enumerate(images)}
    return _sparse.rank_sparse(columns, p) - _sparse.rank_sparse(images, p) >= deficit


# -- pencil file format --------------------------------------------------------


def dump_pencil(L: LinearPencil, realize: tuple[int, int] | None = None) -> str:
    lines = [f"field {field_name(L.field)}", f"size {L.size}", f"nvars {L.nvars}"]
    blocks: list[list[str]] = [[] for _ in range(L.nvars + 1)]
    for (i, j), e in sorted(L.entries.items()):
        for k, v in e.items():
            blocks[k].append(f"{i + 1} {j + 1} {L.field.format(v)}")
    for k, block in enumerate(blocks):
        lines.append(f"coeff {k}")
        lines.extend(block)
        lines.append("end")
    if realize is not None:
        lines.append(f"realize {realize[0]} {realize[1]}")
    return "\n".join(lines) + "\n"


# The largest `size` header a pencil file may declare, so that a header
# cannot ask series-zero for vectors of any length; far above the 44002 rows
# that compile writes for inv( nested 4000 deep.
MAX_PENCIL_SIZE = 1 << 20


def parse_pencil(text: str):
    """Returns (LinearPencil, realize-or-None).  Malformed input raises
    ValueError naming the line."""
    field = size = nvars = realize = None
    entries: Entries = {}        # filled line by line, nothing from the header
    block = None                 # k while reading the lines of `coeff k`
    for lineno, ln in enumerate(text.splitlines(), 1):
        parts = ln.split()
        if not parts:
            continue
        try:
            if field is None:
                field = parse_field_header(parts)
            elif size is None or nvars is None:
                key = "size" if size is None else "nvars"
                if parts[0] != key or len(parts) != 2:
                    raise ValueError(f"missing {key} header")
                if key == "size":
                    size = bounded_int(parts[1], "size", 1, MAX_PENCIL_SIZE)
                else:
                    nvars = bounded_int(parts[1], "nvars", 0, MAX_VARS)
            elif block is not None:
                if parts == ["end"]:
                    block = None
                    continue
                if len(parts) != 3:
                    raise ValueError("expected `row col value` or `end`")
                r = bounded_int(parts[0], "row", 1, size)
                c = bounded_int(parts[1], "column", 1, size)
                place_block(entries, {(r - 1, c - 1): {block: field.parse(parts[2])}})
            elif parts[0] == "coeff" and len(parts) == 2:
                block = bounded_int(parts[1], "coefficient index", 0, nvars)
            elif parts[0] == "realize" and len(parts) == 3:
                realize = (bounded_int(parts[1], "realize row", 1, size),
                           bounded_int(parts[2], "realize column", 1, size))
            else:
                raise ValueError(f"expected coeff block, found {ln.strip()!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    eof = f"line {len(text.splitlines()) + 1}: end of file"
    if nvars is None:
        missing = "field" if field is None else "size" if size is None else "nvars"
        raise ValueError(f"{eof}, missing {missing} header")
    if block is not None:
        raise ValueError(f"{eof} inside coeff block {block}")
    return LinearPencil(field, size, nvars, entries), realize


def read_pencil(path: str):
    with open(path) as fh:
        return parse_pencil(fh.read())


def write_pencil(L: LinearPencil, path: str,
                 realize: tuple[int, int] | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(dump_pencil(L, realize))

