"""Exact sparse elimination over any field, on Python numbers.

A field is given by its characteristic p: a prime, whose elements are
residues (ints in [0, p)), or 0 for the rationals, whose elements are
fractions.Fraction.  Matrices are rows {i: {j: value}} with no zero
stored.  rank_sparse eliminates columns in order on the sparsest row,
over a prime without an inverse (alpha row - f pivot row, Bareiss's step
in a field).  Kept sparse to the end, the same elimination can fill a
Record of its pivot rows and, for each pivot, the rows it updated and by
how much: a factorization of the matrix.  From the record, kernel reads
off a basis of the kernel and preimage carries a right-hand vector through
the same row updates and back-substitutes it through the pivot rows, so
one elimination serves any number of right-hand sides; the first
back-substitution inverts all the record's pivots with one pow
(Montgomery's trick), and the record keeps them.  solve, the one linear
solver of ncrat, is that elimination followed by a preimage per
right-hand side, and PencilOracle.shrunk_subspace records its own.
extend_basis adds a vector to the reduced echelon basis of a span that
grows.  fills is the one rule that sends a matrix, or the active block of
an elimination, to the dense kernel in _modnum, which is imported only then
and serves only the primes for which supported holds: the Mersenne prime
2^61 - 1 and the primes below 2^31.  rank_sparse without a record hands it
the active block once that fills in, and solve a system whose matrix fills
in from the start.  Over Q and every other prime, and wherever a record is
kept, the elimination stays here to the end.  This module imports nothing
beyond the standard library.
"""

from __future__ import annotations

import bisect
import collections
from fractions import Fraction

M61 = (1 << 61) - 1


def supported(p: int) -> bool:
    """Whether _modnum's limb arithmetic is exact mod p: never for Q (0)."""
    return p == M61 or 0 < p < (1 << 31)


# rank_sparse hands its active block to rank_mod once the block has at least
# _DENSE_ROWS rows and more than _DENSE_FILL of its slots hold a nonzero.
# Measured on a 2-core host, each evaluation timed alone (median of 5):
# - random cores (n 48-180, d 1/2/4, entry density 2-100%) fill in fast;
#   with no hand-off they took 5.2 / 3.1 / 2.7 s in all at d = 1 / 2 / 4,
#   with (96, 0.3) 0.76 / 0.47 / 0.34 s, with (64, 0.3) 0.49 / 0.30 / 0.25 s;
# - on the evaluations of the benchmark workloads (n <= 204, density
#   3-20%) (64, 0.3) never hands off, while (48, 0.3) and (64, 0.2) do, on
#   49- and 71-row blocks of ncrank-grid's n = 72-180 matrices, and
#   slowed those 56 evaluations from 0.27 s to 0.43 and 0.57 s.
_DENSE_ROWS = 64
_DENSE_FILL = 0.3


def fills(p: int, rows: int, cols: int, nnz: int) -> bool:
    """Whether a matrix or active block of this shape and nonzero count,
    over the field of characteristic p, goes to the dense kernel: it fills
    in and _modnum supports p."""
    return rows >= _DENSE_ROWS and nnz > _DENSE_FILL * rows * cols and supported(p)


class Record(list):
    """rank_sparse's record: for each pivot row as it left, (column j, the
    pivot alpha, the rest of the row {c: value} (all c > j), its row index
    r, the updates [(i, f), ...] of the live rows i that held f at column
    j).  inverses, once read, holds 1 / alpha for each pivot."""
    inverses: list | None = None


def rank_sparse(rows: dict, p: int, record: Record | None = None) -> int:
    """Rank over the field of characteristic p (0 for Q) of the matrix with
    rows {i: {j: value}}, no zero stored.  The rows are consumed.

    Columns are eliminated in increasing order, each on the sparsest row
    that holds it (the lowest index among equals), and an update that
    cancels exactly deletes the entry: exact over every field, residues
    reduced mod p as they are made, fractions in lowest terms.  Over a
    prime, a row holding f where the pivot row holds alpha becomes alpha
    row - f (pivot row), with no inverse and the support dividing by alpha
    gives.  Without a record, over the supported primes, the active block
    (rows left, columns not yet eliminated) goes to _modnum's dense
    rank_mod once it fills in.

    Given a Record, the elimination fills it in and stays sparse to the
    end, so the record holds one pivot per unit of rank.  The pivot rows
    are an echelon basis of the row space, and the updates say how every
    row was reduced to them (kernel, preimage)."""
    live = {i: row for i, row in rows.items() if row}
    cols = collections.defaultdict(set)      # column -> the live rows holding it
    for i, row in live.items():
        for j in row:
            cols[j].add(i)
    nnz = sum(map(len, live.values()))
    order = sorted(cols)
    rank = 0
    dense = record is None and len(live) >= _DENSE_ROWS   # rows only leave
    for n, j in enumerate(order):
        if dense and fills(p, len(live), len(order) - n, nnz):
            from . import _modnum
            return rank + _modnum.rank_rows(live, order[n:], p)
        holders = cols.pop(j)
        if not holders:
            continue
        r = min([(len(live[i]), i) for i in holders])[1] if len(holders) > 1 \
            else next(iter(holders))
        prow = live.pop(r)
        alpha = prow.pop(j)
        holders.discard(r)
        updates: list = []
        if record is not None:
            record.append((j, alpha, prow, r, updates))
        for c in prow:
            cols[c].discard(r)
        nnz -= 1 + len(prow)
        rank += 1
        if not holders:
            continue
        # over a prime row -> alpha row - f prow, over Q row - (f / alpha) prow
        neg_inv = None if p else -1 / Fraction(alpha)
        update = prow.items() if p else [(c, v * neg_inv) for c, v in prow.items()]
        for i in holders:
            row = live[i]
            f = row.pop(j)
            updates.append((i, f))
            nnz -= 1
            if p:
                f = p - f
                if alpha != 1:
                    for c in row:
                        row[c] = row[c] * alpha % p
            for c, v in update:
                x = row.get(c)
                if x is None:
                    row[c] = f * v % p if p else f * v
                    cols[c].add(i)
                    nnz += 1
                else:
                    x += f * v
                    if p:
                        x %= p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        cols[c].discard(i)
                        nnz -= 1
            if not row:
                del live[i]
    return rank


def extend_basis(basis: dict, v: dict, p: int) -> int | None:
    """Add v {j: value} (consumed) to the reduced echelon basis {pivot
    column: row} of a span, in place: v is cleared at every pivot column,
    and a remainder is scaled to 1 at its first column c, cleared from
    every row of the basis and stored as basis[c].  Returns c, or None when
    v was in the span.  The rows in pivot-column order are the span's
    reduced echelon basis whatever the order of the vectors added, so over
    Q their entries do not grow as more are added."""
    _clear(v, basis, p)
    if not v:
        return None
    c = min(v)
    s = pow(v[c], -1, p) if p else 1 / Fraction(v[c])
    row = {j: x * s % p for j, x in v.items()} if p else \
        {j: x * s for j, x in v.items()}
    lead = {c: row}
    for other in basis.values():
        if c in other:
            _clear(other, lead, p)
    basis[c] = row
    return c


def _clear(row: dict, basis: dict, p: int) -> None:
    """Subtract from row, in place, the multiple of each basis row {pivot
    column: row, 1 at its pivot column and 0 at the others} that clears its
    pivot column."""
    for c in [c for c in row if c in basis]:
        f = row[c]
        for c2, v in basis[c].items():          # clears c itself, where v = 1
            x = row.get(c2, 0) - f * v
            if p:
                x %= p
            if x:
                row[c2] = x
            else:                               # f v != 0, so c2 was in row
                del row[c2]


def kernel(record: Record, ncols: int, p: int) -> dict:
    """A basis of the kernel over the columns 0..ncols-1 of the matrix whose
    elimination rank_sparse recorded: for each column f without a pivot,
    the x {j: value} with x_f = 1 and 0 at the other pivotless columns,
    keyed by f.  The pivot rows span the matrix's rows and each reaches
    only later columns, so x_j = -(1 / alpha) sum_c prow_c x_c is solved
    from the last pivot back; a pivot after f gets x_j = 0."""
    cols = [j for j, *_ in record]           # increasing
    return {f: _back_substitute(record, bisect.bisect(cols, f), {f: 1}, {}, p)
            for f in sorted(set(range(ncols)).difference(cols))}


def preimage(record: Record, w: dict, p: int) -> dict | None:
    """An x {j: value} with M x = w, for w {i: value} indexed by M's rows,
    or None when w is not in the column span of M, where record is
    rank_sparse's record of M's elimination.  w takes the row updates in
    the order they were made (over a prime alpha w_i - f w_r, which scales
    w_i by alpha even where w_r is 0); then it is in M's column span
    exactly when it vanishes on every row that did not become a pivot row
    (its M-part cancelled), and x is back-substituted through the pivot
    rows, 0 at the pivotless columns."""
    w = dict(w)
    rhs = {}                                 # pivot row -> its value
    inverses = None if p else _inverses(record, p)
    for k, (_, alpha, _, r, updates) in enumerate(record):
        y = w.pop(r, 0)
        if y:
            rhs[r] = y
            y = p - y if p else -y * inverses[k]
            for i, f in updates:
                x = w.get(i, 0)
                w[i] = (alpha * x + f * y) % p if p else x + f * y
        elif p and alpha != 1 and w:
            for i, _ in updates:
                if i in w:
                    w[i] = w[i] * alpha % p
    if any(w.values()):
        return None
    return _back_substitute(record, len(record), {}, rhs, p)


def _back_substitute(record: Record, stop: int, x: dict, rhs: dict, p: int) -> dict:
    """x with x_j = (rhs[r] - sum_c prow_c x_c) / alpha set for each of the
    first stop pivots (j, alpha, prow, r) where it is not 0, from the last
    back, by the record's inverses (one pow for all of them, _inverses)."""
    inverses = _inverses(record, p)
    for k in range(stop - 1, -1, -1):
        j, _, prow, r, _ = record[k]
        acc = rhs.get(r, 0)
        for c, v in prow.items():
            if c in x:
                acc -= v * x[c]
        if p:
            acc %= p
        if acc:
            x[j] = acc * inverses[k] % p if p else acc * inverses[k]
    return x


def _inverses(record: Record, p: int) -> list:
    """record.inverses, computed the first time.  Over a prime, Montgomery's
    trick takes one pow: with P_k the product of the first k pivots, 1 /
    alpha_k = P_k / P_(k+1), and 1 / P_k runs down from 1 / P_n."""
    if record.inverses is None and not p:
        record.inverses = [1 / Fraction(pivot[1]) for pivot in record]
    elif record.inverses is None:
        inverses, u = [], 1                      # P_k, then 1 / alpha_k
        for pivot in record:
            inverses.append(u)
            u = u * pivot[1] % p
        u = pow(u, -1, p)
        for k in range(len(record) - 1, -1, -1):
            inverses[k] = u * inverses[k] % p
            u = u * record[k][1] % p
        record.inverses = inverses
    return record.inverses


def solve(rows: dict, n: int, rhs: list, p: int) -> list[dict] | None:
    """The x {j: value} with A x = w for each column w {i: value} of rhs,
    in order, for A square of size n with rows {i: {j: value}} (consumed);
    None when A is singular.  An A that fills in is scattered once into
    _modnum and solved there by solve_mod; any other is eliminated once by
    rank_sparse, recording its pivots, and each x is its preimage of w."""
    if n >= _DENSE_ROWS and fills(p, n, n, sum(map(len, rows.values()))):
        from . import _modnum
        order = range(n)
        X = _modnum.solve_mod(_modnum.scatter([rows.get(i, {}) for i in order], order),
                              _modnum.scatter(rhs, order).T, p)
        if X is None:
            return None
        return [{j: x for j, x in enumerate(col) if x} for col in X.T.tolist()]
    record = Record()
    if rank_sparse(rows, p, record) < n:
        return None
    return [preimage(record, w, p) for w in rhs]
