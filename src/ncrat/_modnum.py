"""Vectorized prime-field linear algebra on numpy uint64 arrays.

Two fast paths: the Mersenne prime 2^61 - 1 (the default working field),
whose products are handled with split-limb arithmetic and shift folding,
and primes below 2^31, where raw 64-bit products cannot overflow.  Other
moduli are not supported here; callers fall back to exact pure-Python
elimination.

Matrix products mod p (matmul_mod) are float64 BLAS products of 21-bit
limbs, exact while the inner dimension of one product is at most 682.
Dense elimination is block-recursive on top of them: _panel eliminates the
columns of one matrix and returns its pivot rows and the multipliers H
that apply the same elimination to any block beside it.  rank_mod ranks a
matrix with it (or with Python ints when the matrix is small), and
solve_mod solves A X = B by eliminating [A; I].  Sparse matrices, given as
rows of {column: residue}, are ranked by rank_sparse: sparse elimination on
Python ints, for any prime, that hands a block which has filled in to
rank_mod; the same elimination, kept sparse, gives row_basis,
nullspace_sparse and solve_sparse.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

M61 = (1 << 61) - 1

_MASK61 = np.uint64(M61)
_S61 = np.uint64(61)
_S31 = np.uint64(31)
_S30 = np.uint64(30)
_LOW31 = np.uint64((1 << 31) - 1)
_LOW30 = np.uint64((1 << 30) - 1)
_ONE = np.uint64(1)


def supported(p: int) -> bool:
    return p == M61 or p < (1 << 31)


def _reduce_m61(t):
    """Canonical residue of any uint64 t mod 2^61 - 1; overwrites t."""
    low = t & _MASK61
    t >>= _S61
    t += low                                 # below 2^61 + 8
    # t - p wraps around when t < p (the ufunc, unlike scalar '-', wraps silently)
    return np.minimum(t, np.subtract(t, _MASK61))


def _mul_m61(a, b, add=None):
    """a * b (+ add) mod 2^61 - 1 for canonical residues, with a = a1 2^31 + a0
    and b likewise: the unreduced sum 2 a1 b1 + a0 b0 + (a1 b0 + a0 b1) 2^31,
    its 2^61 folded down, stays below 5 * 2^61 + 2^32 with the addend."""
    a1 = a >> _S31
    a0 = a & _LOW31
    b1 = b >> _S31
    b0 = b & _LOW31
    mid = a1 * b0
    mid += a0 * b1
    t = a1 * b1
    t <<= _ONE
    t += a0 * b0
    t += mid >> _S30
    mid &= _LOW30
    mid <<= _S31
    t += mid
    if add is not None:
        t += add
    return _reduce_m61(t)


def mul_mod(a, b, p: int, add=None):
    """a * b (+ add) mod p, elementwise."""
    if p == M61:
        return _mul_m61(a, b, add)
    if add is None:
        return (a * b) % np.uint64(p)
    return (a * b + add) % np.uint64(p)


def kron_mod(a, b, p: int):
    """Kronecker product mod p."""
    r1, c1 = a.shape
    r2, c2 = b.shape
    prod = mul_mod(a[:, None, :, None], b[None, :, None, :], p)
    return prod.reshape(r1 * r2, c1 * c2)


def eval_pencil_mod(coeffs, mats, d: int, p: int):
    """coeffs: (n+1, s, s); mats: (>=n, d, d).  Returns A0 x I_d + sum Ai x ti:
    the sum over i is one matmul_mod, (s^2, n) coefficients by (n, d^2)
    matrices, and A0 goes on the diagonal of each d x d block."""
    n, s = coeffs.shape[0] - 1, coeffs.shape[1]
    out = np.zeros((s, d, s, d), dtype=np.uint64)
    if n:
        prod = matmul_mod(coeffs[1:].reshape(n, s * s).T, mats[:n].reshape(n, d * d), p)
        out[...] = prod.reshape(s, s, d, d).transpose(0, 2, 1, 3)
    a = np.arange(d)
    out[:, a, :, a] = add_mod(out[:, a, :, a], coeffs[0], p)
    return out.reshape(s * d, s * d)


_LIMB = 21
_LIMB_MASK = np.uint64((1 << _LIMB) - 1)
# Inner dimension of one float64 limb product.  A limb sum adds at most
# three products of 21-bit limbs over the inner dimension K, so it stays
# an exact integer below 3 * K * 2^42 < 2^53 for K <= 682.
_KMAX = 682
# n * m at or below which a matrix is ranked with Python ints, which is the
# faster path up to 24 x 24 on random and on evaluated-pencil matrices.
_SMALL = 24 * 24
_LEAF = 16                 # columns eliminated pivot by pivot


def _limbs(a, order, axis: int):
    """The 21-bit limbs of a as float64, in the given order of limb
    indices, side by side along axis (-1 or -2)."""
    k = a.shape[axis]
    shape = list(a.shape)
    shape[axis] *= len(order)
    out = np.empty(shape)
    for pos, i in enumerate(order):
        part = out[..., pos * k:(pos + 1) * k] if axis == -1 else \
            out[..., pos * k:(pos + 1) * k, :]
        part[...] = (a >> np.uint64(_LIMB * i)) & _LIMB_MASK
    return out


def matmul_mod(a, b, p: int):
    """a @ b mod p for uint64 arrays of residues, stacked as np.matmul.

    Both operands are split into 21-bit limbs; each limb sum
    sum_{i+j=s} a_i b_j is one float64 BLAS product, exact because every
    partial sum is an integer below 2^53.  The sums are folded back with
    2^61 == 1 for the Mersenne prime, or reduced term by term for p < 2^31.
    """
    k = a.shape[-1]
    if k > _KMAX:
        return add_mod(matmul_mod(a[..., :_KMAX], b[..., :_KMAX, :], p),
                       matmul_mod(a[..., _KMAX:], b[..., _KMAX:, :], p), p)
    acc = _limb_sums(a, b, p)
    return _reduce_m61(acc) if p == M61 else acc % np.uint64(p)


def _limb_sums(a, b, p: int):
    """sum_s (sum_{i+j=s} a_i b_j) 2^(21 s), each term reduced below 2^62:
    matmul_mod before its final reduction."""
    k = a.shape[-1]
    count = 3 if p == M61 else 2
    al = _limbs(a, range(count), -1)                 # a_0 | a_1 | ...
    bl = _limbs(b, range(count)[::-1], -2)           # ... ; b_1 ; b_0
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    prod = np.empty(shape)
    top = prod.view(np.uint64)       # scratch once prod is read
    x = np.empty(shape, dtype=np.uint64)
    acc = np.zeros(shape, dtype=np.uint64)
    for s in range(2 * count - 1):
        lo, hi = max(0, s - count + 1), min(s, count - 1)
        np.matmul(al[..., lo * k:(hi + 1) * k],
                  bl[..., (count - 1 - s + lo) * k:(count - s + hi) * k, :], out=prod)
        x[...] = prod
        if p == M61:
            e = _LIMB * s % 61           # 2^(21 s) == 2^e
            if e:
                np.right_shift(x, np.uint64(61 - e), out=top)
                x &= np.uint64((1 << (61 - e)) - 1)
                x <<= np.uint64(e)
                x += top
        elif s:
            x %= np.uint64(p)
            x *= np.uint64(pow(2, _LIMB * s, p))
        acc += x
    return acc


def add_mod(a, b, p: int):
    out = a + b
    return np.minimum(out, np.subtract(out, np.uint64(p)))


def sub_mod(a, b, p: int):
    out = np.subtract(a, b)
    return np.minimum(out, np.add(out, np.uint64(p)))


def _rank_small(rows: list, p: int) -> int:
    """Rank of a matrix given as lists of residues, by Python-int elimination."""
    rank = 0
    while rows:
        top = rows.pop()
        c = next((j for j, x in enumerate(top) if x), None)
        if c is None:
            continue
        inv = pow(top[c], -1, p)
        rank += 1
        for i, row in enumerate(rows):
            f = row[c]
            if f:
                f = f * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
    return rank


def _leaf(X, p: int, want_h: bool):
    """Pivot-by-pivot elimination of the columns of X (n, w).

    Column c pivots on its first nonzero row r and subtracts X[:, c] / X[r, c]
    times row r from every row, r included, so a pivot row is zero afterwards
    and is never chosen again: no swaps, and a column without a pivot
    subtracts nothing.  Returns (piv, H): the pivot rows, and H (n, len(piv))
    with T - H @ T[piv] the same elimination applied to any block T beside X
    (None unless want_h).  H is carried as w extra columns that the row
    updates act on, unscaled (column c holds X[:, c], not X[:, c] / X[r, c])
    until the end.
    """
    n, w = X.shape
    W = np.zeros((n, 2 * w if want_h else w), dtype=np.uint64)
    W[:, :w] = X
    slots, piv, inv = [], [], []
    for c in range(w):
        col = W[:, c]
        nz = np.flatnonzero(col)
        if not nz.size:
            continue
        r = int(nz[0])
        iv = pow(int(col[r]), -1, p)
        slots.append(w + c)
        piv.append(r)
        inv.append(iv)
        end = w + c if want_h else w
        if c + 1 < end:
            # -(pivot row / pivot), a few entries: Python ints
            neg = np.array([-x * iv % p for x in W[r, c + 1:end].tolist()], dtype=np.uint64)
            rest = W[:, c + 1:end]
            rest[...] = mul_mod(col[:, None], neg, p, add=rest)
        if want_h:
            W[:, w + c] = col
    H = mul_mod(W[:, slots], np.array(inv, dtype=np.uint64), p) if want_h else None
    return np.array(piv, dtype=np.intp), H


def _split(w: int) -> int:
    """Width of the left half of w > _LEAF columns, a multiple of _LEAF."""
    return -(-w // (2 * _LEAF)) * _LEAF


def _panel(X, p: int):
    """_leaf's (piv, H) for any width, by column halving: eliminate the left
    half, apply it to the right half, eliminate that, and compose
    (I - H2 P2)(I - H1 P1) = I - [H1 - H2 H1[piv2], H2] [P1; P2]."""
    w = X.shape[1]
    if w <= _LEAF:
        return _leaf(X, p, True)
    h = _split(w)
    piv1, H1 = _panel(X[:, :h], p)
    X2 = X[:, h:]
    if piv1.size:
        X2 = sub_mod(X2, matmul_mod(H1, X2[piv1], p), p)
    piv2, H2 = _panel(X2, p)
    if piv1.size and piv2.size:
        H1 = sub_mod(H1, matmul_mod(H2, H1[piv2], p), p)
    return np.concatenate([piv1, piv2]), np.concatenate([H1, H2], axis=1)


def rank_mod(A, p: int) -> int:
    """Rank of one n x m matrix of residues mod p: eliminate the left half
    of the columns, update the right half, drop the pivot rows and go on
    with the right half."""
    A = np.asarray(A, dtype=np.uint64)
    n, m = A.shape
    if n == 0 or m == 0:
        return 0
    if n * m <= _SMALL:
        return _rank_small(A.tolist(), p)
    if m > n:
        A = A.T
    rank = 0
    while A.shape[0] and A.shape[1]:
        w = A.shape[1]
        if w <= _LEAF:
            return rank + _leaf(A, p, False)[0].size
        h = _split(w)
        piv, H = _panel(A[:, :h], p)
        rank += piv.size
        A = A[:, h:]
        if piv.size:
            A = np.delete(sub_mod(A, matmul_mod(H, A[piv], p), p), piv, axis=0)
    return rank


def solve_mod(A, B, p: int):
    """X with A X = B mod p for square A (n, n) and B (n, m), or None when A
    is singular.  _panel eliminates the n columns of [A; I], which has full
    column rank: a pivot row >= n means A is singular; otherwise all pivots
    lie in A, H[n:] A[piv] = I, and the bottom of the eliminated [B; 0] is
    -H[n:] B[piv] = -A^-1 B."""
    n = A.shape[0]
    piv, H = _panel(np.concatenate([A, np.eye(n, dtype=np.uint64)]), p)
    if (piv >= n).any():
        return None
    return matmul_mod(H[n:], B[piv], p)


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


def rank_sparse(rows: dict, p: int, pivots: list | None = None) -> int:
    """Rank mod the prime p of the matrix with rows {i: {j: residue}}, no
    zero stored.  The rows are consumed.

    Columns are eliminated in increasing order, each on the sparsest row
    that holds it (the lowest index among equals), and an update that
    cancels exactly deletes the entry: Python ints, exact for any prime.
    Over the primes rank_mod supports, the active block (rows left, columns
    not yet eliminated) goes to rank_mod once it is large and filled in.

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
            return rank + _rank_rows_dense(live, order[n:], p)
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


def fills(rows: int, cols: int, nnz: int) -> bool:
    """Whether rank_sparse hands an active block of this shape and nonzero
    count to rank_mod (whenever p is supported)."""
    return rows >= _DENSE_ROWS and nnz > _DENSE_FILL * rows * cols


def _rank_rows_dense(live: dict, order: list, p: int) -> int:
    """rank_mod of the rows in live, whose entries lie in the sorted columns
    order."""
    chain = itertools.chain.from_iterable
    at = {j: q for q, j in enumerate(order)}
    nnz = sum(map(len, live.values()))
    A = np.zeros((len(live), len(order)), dtype=np.uint64)
    A[np.repeat(np.arange(len(live)), list(map(len, live.values()))),
      np.fromiter(map(at.__getitem__, chain(live.values())), dtype=np.intp, count=nnz)] = \
        np.fromiter(chain(map(dict.values, live.values())), dtype=np.uint64, count=nnz)
    return rank_mod(A, p)
