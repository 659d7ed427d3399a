"""Exact sparse elimination over any field, on Python numbers.

A field is given by its characteristic p: a prime, whose elements are
residues (ints in [0, p)), or 0 for the rationals, whose elements are
fractions.Fraction.  Matrices are rows {i: {j: value}} with no zero
stored.  rank_sparse eliminates columns in order on the sparsest row; the
same elimination, kept sparse to the end, gives row_basis,
nullspace_sparse and solve_sparse.  fills is the one rule that sends a
matrix, or the active block of an elimination, to the dense kernel in
_modnum, which is imported only then and serves only the primes for which
supported holds: the Mersenne prime 2^61 - 1 and the primes below 2^31.
Over Q and every other prime the elimination stays here to the end.
This module imports nothing beyond the standard library.
"""

from __future__ import annotations

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


def rank_sparse(rows: dict, p: int, pivots: list | None = None) -> int:
    """Rank over the field of characteristic p (0 for Q) of the matrix with
    rows {i: {j: value}}, no zero stored.  The rows are consumed.

    Columns are eliminated in increasing order, each on the sparsest row
    that holds it (the lowest index among equals), and an update that
    cancels exactly deletes the entry: exact over every field, residues
    reduced mod p as they are made, fractions in lowest terms.  Over the
    supported primes, the active block (rows left, columns not yet
    eliminated) goes to _modnum's dense rank_mod once it fills in.

    Given a list, pivots receives each pivot row as it leaves, (column j,
    -1 / pivot, the rest of the row {c: value}, all c > j), and the
    elimination stays sparse to the end: the pivot rows are an echelon
    basis of the row space (row_basis, nullspace_sparse)."""
    live = {i: row for i, row in rows.items() if row}
    cols = collections.defaultdict(set)      # column -> the live rows holding it
    for i, row in live.items():
        for j in row:
            cols[j].add(i)
    nnz = sum(map(len, live.values()))
    order = sorted(cols)
    rank = 0
    for n, j in enumerate(order):
        if pivots is None and fills(p, len(live), len(order) - n, nnz):
            from . import _modnum
            return rank + _modnum.rank_rows(live, order[n:], p)
        holders = cols.pop(j)
        if not holders:
            continue
        r = min(holders, key=lambda i: (len(live[i]), i)) if len(holders) > 1 \
            else next(iter(holders))
        prow = live.pop(r)
        alpha = prow.pop(j)
        neg_inv = p - pow(alpha, -1, p) if p else -1 / Fraction(alpha)
        if pivots is not None:
            pivots.append((j, neg_inv, prow))
        holders.discard(r)
        for c in prow:
            cols[c].discard(r)
        nnz -= 1 + len(prow)
        rank += 1
        if not holders:
            continue
        update = [(c, v * neg_inv % p) for c, v in prow.items()] if p else \
            [(c, v * neg_inv) for c, v in prow.items()]
        for i in holders:
            row = live[i]
            f = row.pop(j)
            nnz -= 1
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


def row_basis(rows: dict, p: int) -> list[dict]:
    """The reduced echelon basis {j: value} of the span of the rows {i: {j:
    value}} (consumed): rank_sparse's pivot rows scaled to 1 at the pivot
    column, and cleared, from the last back, at every later pivot column.
    It depends only on the span, not on the rows that gave it, so over Q
    its entries do not grow when a basis is fed back in."""
    pivots: list = []
    rank_sparse(rows, p, pivots)
    basis: dict = {}                     # pivot column -> its reduced row
    for j, neg_inv, prow in reversed(pivots):
        row = {c: v * -neg_inv % p if p else v * -neg_inv for c, v in prow.items()}
        for c in [c for c in row if c in basis]:
            f = row[c]
            for c2, v in basis[c].items():      # clears c itself, where v = 1
                x = row.get(c2, 0) - f * v
                if p:
                    x %= p
                if x:
                    row[c2] = x
                else:
                    row.pop(c2, None)
        row[j] = 1
        basis[j] = row
    return [basis[j] for j, _, _ in pivots]


def nullspace_sparse(rows: dict, ncols: int, p: int) -> dict:
    """A basis of {x : M x = 0} for M with rows {i: {j: value}}
    (consumed) over the columns 0..ncols-1: for each column f without a
    pivot in rank_sparse, the x {j: value} with x_f = 1 and 0 at the
    other pivotless columns, keyed by f.  The pivot rows span M's rows and
    each reaches only later columns, so x_j = -(1 / pivot) sum_c M_jc x_c
    is solved from the last pivot back; a pivot after f gets x_j = 0."""
    pivots: list = []
    rank_sparse(rows, p, pivots)
    pivots.reverse()
    kernel = {}
    for f in sorted(set(range(ncols)).difference(j for j, _, _ in pivots)):
        x = {f: 1}
        for j, neg_inv, prow in pivots:
            if j < f:
                acc = sum(v * x[c] for c, v in prow.items() if c in x)
                if p:
                    acc %= p
                if acc:
                    x[j] = acc * neg_inv % p if p else acc * neg_inv
        kernel[f] = x
    return kernel


def solve_sparse(rows: dict, n: int, m: int, p: int) -> list[dict] | None:
    """The m columns {j: value} of X with A X = B, for A square of size n
    and B n x m given as the rows {i: {j: value}} of [A | -B], B's column
    b at n + b (consumed); None when A is singular.  Column b of X is the
    j < n part of nullspace_sparse's vector for the pivotless column n + b,
    since A x = B e_b; a pivotless column of A makes A singular."""
    kernel = nullspace_sparse(rows, n + m, p)
    if any(f < n for f in kernel):
        return None
    return [{j: v for j, v in kernel[n + b].items() if j < n} for b in range(m)]
