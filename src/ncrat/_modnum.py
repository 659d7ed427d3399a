"""The dense prime-field kernel, on numpy uint64 arrays of residues.

The only module of ncrat that imports numpy, and imported on first dense
use: when a matrix fills in (_sparse.fills), rank_sparse hands it its
active block, _sparse.solve its system and the structural oracle its core.
It serves only the primes _sparse.supported accepts, and _sparse.fills
never sends it another field: the Mersenne prime 2^61 - 1, whose products
use split-limb arithmetic and shift folding, and primes below 2^31, where
raw 64-bit products cannot overflow.  Its limb arithmetic is wrong mod
any other number, and it has no rationals.

Matrix products mod p (matmul_mod) are float64 BLAS products of 21-bit
limbs, exact while the inner dimension of one product is at most 682.
Dense elimination is block-recursive on top of them: _panel eliminates the
columns of one matrix and returns its pivot rows and the multipliers H
that apply the same elimination to any block beside it.  rank_mod ranks a
matrix with it, and solve_mod solves A X = B by eliminating [A; I].
scatter turns the sparse rows of _sparse into the arrays they take.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._sparse import M61

_MASK61 = np.uint64(M61)
_S61 = np.uint64(61)
_S31 = np.uint64(31)
_S30 = np.uint64(30)
_LOW31 = np.uint64((1 << 31) - 1)
_LOW30 = np.uint64((1 << 30) - 1)
_ONE = np.uint64(1)


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


def rank_rows(live: dict, order: list, p: int) -> int:
    """rank_mod of the rows in live, whose entries lie in the sorted columns
    order."""
    return rank_mod(scatter(live.values(), order), p)


def scatter(rows, order):
    """The rows {j: value}, a sized collection whose entries lie in the
    sorted columns order, as a (len(rows), len(order)) array of residues."""
    chain = itertools.chain.from_iterable
    at = {j: q for q, j in enumerate(order)}
    nnz = sum(map(len, rows))
    A = np.zeros((len(rows), len(order)), dtype=np.uint64)
    A[np.repeat(np.arange(len(rows)), list(map(len, rows))),
      np.fromiter(map(at.__getitem__, chain(rows)), dtype=np.intp, count=nnz)] = \
        np.fromiter(chain(map(dict.values, rows)), dtype=np.uint64, count=nnz)
    return A


def stack(t):
    """The matrices of a MatrixTuple as an (n, d, d) array."""
    return np.array([m.data for m in t.mats], dtype=np.uint64).reshape(t.n, t.d, t.d)


def pencil_coeffs(L):
    """The coefficients of a LinearPencil scattered into an (nvars+1, size,
    size) array."""
    arr = np.zeros((L.nvars + 1, L.size, L.size), dtype=np.uint64)
    if L.entries:
        ks, rs, cs, vs = zip(*((k, r, c, v)
                               for (r, c), e in L.entries.items()
                               for k, v in e.items()))
        arr[ks, rs, cs] = np.array(vs, dtype=np.uint64)
    return arr
