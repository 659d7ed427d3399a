"""Sparse prime-field elimination on Python ints.

Matrices are rows {i: {j: residue}} with no zero stored.  rank_sparse
eliminates columns in order on the sparsest row, exact for any prime; the
same elimination, kept sparse to the end, gives row_basis,
nullspace_sparse and solve_sparse.  fills is the one rule that sends a
matrix, or the active block of an elimination, to the dense kernel in
_modnum, which is imported only then and serves the primes for which
supported holds: the Mersenne prime 2^61 - 1 and the primes below 2^31.
This module imports nothing beyond the standard library.
"""

from __future__ import annotations

import collections

M61 = (1 << 61) - 1


def supported(p: int) -> bool:
    return p == M61 or p < (1 << 31)


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


def fills(rows: int, cols: int, nnz: int) -> bool:
    """Whether rank_sparse hands an active block of this shape and nonzero
    count to rank_mod (whenever p is supported)."""
    return rows >= _DENSE_ROWS and nnz > _DENSE_FILL * rows * cols


def rank_sparse(rows: dict, p: int, pivots: list | None = None) -> int:
    """Rank mod the prime p of the matrix with rows {i: {j: residue}}, no
    zero stored.  The rows are consumed.

    Columns are eliminated in increasing order, each on the sparsest row
    that holds it (the lowest index among equals), and an update that
    cancels exactly deletes the entry: Python ints, exact for any prime.
    Over the supported primes, the active block (rows left, columns not
    yet eliminated) goes to _modnum's dense rank_mod once it fills in.

    Given a list, pivots receives each pivot row as it leaves, (column j,
    -1 / pivot, the rest of the row {c: residue}, all c > j), and the
    elimination stays sparse to the end: the pivot rows are an echelon
    basis of the row space (row_basis, nullspace_sparse)."""
    live = {i: row for i, row in rows.items() if row}
    cols = collections.defaultdict(set)      # column -> the live rows holding it
    for i, row in live.items():
        for j in row:
            cols[j].add(i)
    nnz = sum(map(len, live.values()))
    order = sorted(cols)
    dense = supported(p) and pivots is None
    rank = 0
    for n, j in enumerate(order):
        if dense and fills(len(live), len(order) - n, nnz):
            from . import _modnum
            return rank + _modnum.rank_rows(live, order[n:], p)
        holders = cols.pop(j)
        if not holders:
            continue
        r = min(holders, key=lambda i: (len(live[i]), i)) if len(holders) > 1 \
            else next(iter(holders))
        prow = live.pop(r)
        neg_inv = p - pow(prow.pop(j), -1, p)
        if pivots is not None:
            pivots.append((j, neg_inv, prow))
        holders.discard(r)
        for c in prow:
            cols[c].discard(r)
        nnz -= 1 + len(prow)
        rank += 1
        if not holders:
            continue
        update = [(c, v * neg_inv % p) for c, v in prow.items()]
        for i in holders:
            row = live[i]
            f = row.pop(j)
            nnz -= 1
            for c, v in update:
                x = row.get(c)
                if x is None:
                    row[c] = f * v % p
                    cols[c].add(i)
                    nnz += 1
                else:
                    x = (x + f * v) % p
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
    """A basis {j: residue} of the span of the rows {i: {j: residue}}
    (consumed): rank_sparse's pivot rows scaled to 1 at the pivot column."""
    pivots: list = []
    rank_sparse(rows, p, pivots)
    return [{j: 1, **{c: v * (p - neg_inv) % p for c, v in prow.items()}}
            for j, neg_inv, prow in pivots]


def nullspace_sparse(rows: dict, ncols: int, p: int) -> dict:
    """A basis of {x : M x = 0} for M with rows {i: {j: residue}}
    (consumed) over the columns 0..ncols-1: for each column f without a
    pivot in rank_sparse, the x {j: residue} with x_f = 1 and 0 at the
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
                acc = sum(v * x[c] for c, v in prow.items() if c in x) % p
                if acc:
                    x[j] = acc * neg_inv % p
        kernel[f] = x
    return kernel


def solve_sparse(rows: dict, n: int, m: int, p: int) -> list[dict] | None:
    """The m columns {j: residue} of X with A X = B, for A square of size n
    and B n x m given as the rows {i: {j: residue}} of [A | -B], B's column
    b at n + b (consumed); None when A is singular.  Column b of X is the
    j < n part of nullspace_sparse's vector for the pivotless column n + b,
    since A x = B e_b; a pivotless column of A makes A singular."""
    kernel = nullspace_sparse(rows, n + m, p)
    if any(f < n for f in kernel):
        return None
    return [{j: v for j, v in kernel[n + b].items() if j < n} for b in range(m)]
