"""Recognizable series (c, M, b): truncated evaluation, the finite-degree
zero test, and the scalar-scaling search, bounded by 2sd scalars at a
d x d tuple, that upgrades a nonzero truncation to a nonzero full value.

A series c^t (I - M)^{-1} b with homogeneous transition pencil M of size
s is zero exactly when its truncation to degree s-1 is zero; the
truncation is an ordinary polynomial, so randomized evaluation at a
dimension exceeding half its degree decides it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import (MAX_DIM, DenseMatrix, Field, MatrixTuple, Singular, invert,
                    kron, sample_tuple, solve)
from .pencil import (LinearPencil, RealizedEntry, dense_block, eval_pencil,
                     place_block)


class FieldTooSmall(Exception):
    """The scaling scan ran out of F_p's p - 1 nonzero scalars before 2sd."""


@dataclass(frozen=True)
class RecognizableSeries:
    """c: 1 x s row, M: homogeneous pencil (A0 = 0) of size s, b: s x 1."""

    c: DenseMatrix
    M: LinearPencil
    b: DenseMatrix

    def __post_init__(self):
        s = self.M.size
        if self.c.rows != 1 or self.c.cols != s or self.b.rows != s or self.b.cols != 1:
            raise ValueError("boundary vector shapes must be 1 x s and s x 1")
        if any(0 in e for e in self.M.entries.values()):
            raise ValueError("transition pencil must be homogeneous (A0 = 0)")

    @property
    def size(self) -> int:
        return self.M.size

    @property
    def field(self) -> Field:
        return self.M.field

    @property
    def nvars(self) -> int:
        return self.M.nvars


@dataclass(frozen=True)
class SeriesVerdict:
    kind: str                      # "zero" | "nonzero"
    witness: MatrixTuple | None
    dimension: int
    trials: int
    error_bound_num: int           # per-trial (s-1)*d over the sampled set size
    error_bound_den: int


def truncated_eval(S: RecognizableSeries, k: int, t: MatrixTuple) -> DenseMatrix:
    """Exact partial sum sum_{i<=k} c^t M(t)^i b, a d x d block."""
    f = S.field
    eye = DenseMatrix.identity(f, t.d)
    cb = kron(S.c, eye)          # d x sd
    bb = kron(S.b, eye)          # sd x d
    acc = cb.matmul(bb)
    if k == 0:
        return acc
    Mt = eval_pencil(S.M, t)
    w = bb
    for _ in range(k):
        w = Mt.matmul(w)
        acc = acc.add(cb.matmul(w))
    return acc


def series_is_zero(S: RecognizableSeries, trials: int = 16,
                   seed: int = 0) -> SeriesVerdict:
    """Monte Carlo zero test through the degree-(s-1) truncation, evaluated
    at dimension ceil((s+1)/2), at most MAX_DIM for a nonzero series; a Zero
    verdict is one-sided, so trials below 1 raise ValueError."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    s = S.size
    d = (s + 1 + 1) // 2
    rng = random.Random(seed)
    nv = max(S.nvars, 1)
    if all(S.field.is_zero(x) for x in S.c.data) or \
            all(S.field.is_zero(x) for x in S.b.data):
        return SeriesVerdict("zero", None, d, 0, s - 1, S.field.sample_set_size())
    if d > MAX_DIM:
        raise ValueError(f"series of size {s} needs test dimension {d}, above {MAX_DIM}")
    for _ in range(trials):
        t = sample_tuple(S.field, nv, d, rng)
        if not truncated_eval(S, s - 1, t).is_zero():
            return SeriesVerdict("nonzero", t, d, trials, 0, 1)
    return SeriesVerdict("zero", None, d, trials, (s - 1) * d,
                         S.field.sample_set_size())


def scaling_search(S: RecognizableSeries, t: MatrixTuple) -> tuple[int, DenseMatrix]:
    """Scan tau = 1, 2, ... for the first scalar with I - M(tau t)
    invertible and c^t (I - M(tau t))^{-1} b nonzero.  With s the series
    size and d = t.d, a bad tau is a root of det(I - tau M(t)), of degree
    at most sd, or of c^t adj(I - tau M(t)) b, of degree below sd, so one
    of the first 2sd scalars is usable unless the value vanishes along
    tau t, which makes the truncation at t zero.  Returns that tau and its
    value; FieldTooSmall if F_p ends the scan first, at p - 1 < 2sd, ValueError
    if all 2sd scalars fail."""
    f = S.field
    eye = DenseMatrix.identity(f, t.d)
    cb = kron(S.c, eye)
    bb = kron(S.b, eye)
    Mt = eval_pencil(S.M, t)
    big_eye = DenseMatrix.identity(f, Mt.rows)
    bound = 2 * Mt.rows
    scan = min(bound, f.p - 1) if f.kind == "prime" else bound
    for tau in range(1, scan + 1):
        try:
            value = cb.matmul(solve(big_eye.sub(Mt.scale(f.normalize(tau))), bb))
        except Singular:
            continue
        if not value.is_zero():
            return tau, value
    if scan < bound:
        raise FieldTooSmall("no usable scaling value found")
    raise ValueError("all 2sd scaling values fail: the truncation at t is zero")


def assemble_shift_point(shift: MatrixTuple, zwitness: MatrixTuple,
                         tau: int = 1) -> MatrixTuple:
    """Fold a witness for the shift-expansion variables back into a matrix
    tuple for the original variables: P_i assembles the d x d grid of
    scaled z-blocks on top of the embedded base point shift_i x I."""
    f = shift.field
    d = shift.d
    dz = zwitness.d
    if zwitness.n != shift.n * d * d:
        raise ValueError("z-witness length must be n * d^2")
    tf = f.normalize(tau)
    mats = []
    for i in range(shift.n):
        big = kron(shift.mats[i], DenseMatrix.identity(f, dz))
        for j in range(d):
            for k in range(d):
                E = DenseMatrix.zeros(f, d, d)
                E.data[j * d + k] = f.one
                z = zwitness.mats[i * d * d + j * d + k].scale(tf)
                big = big.add(kron(E, z))
        mats.append(big)
    return MatrixTuple(f, d * dz, tuple(mats))


def shifted_entry_series(entry: RealizedEntry,
                         shift: MatrixTuple) -> RecognizableSeries:
    """Power-series expansion of a realized entry around an invertible base
    point: substituting x_i -> Z_i + shift_i with generic d x d matrices
    turns the top-left scalar coordinate of the entry's value block into a
    recognizable series over the n d^2 fresh variables, with transition
    -L(shift)^{-1} (sum_i A_i x E_jk) of size s*d."""
    L = entry.pencil
    f = L.field
    d = shift.d
    base = eval_pencil(L, shift)
    base_inv = invert(base)      # Singular here means the shift is unusable
    sd = L.size * d
    entries: dict = {}
    for i in range(1, L.nvars + 1):
        Ai = LinearPencil(f, L.size, 0, {rc: {0: e[i]} for rc, e in L.entries.items()
                                         if i in e})
        # P = -L(shift)^{-1} (Ai x I_d); the coefficient of z^{(i)}_{jk},
        # -L(shift)^{-1} (Ai x E_jk), is P's columns c d + j moved to c d + k
        AiI = eval_pencil(Ai, MatrixTuple(f, d, ()))      # Ai x I_d
        P = dense_block(base_inv.matmul(AiI).neg(), 0)
        for j in range(d):
            cols = {ab: e for ab, e in P.items() if ab[1] % d == j}
            for k in range(d):
                q = (i - 1) * d * d + j * d + k + 1
                place_block(entries, {ab: {q: e[0]} for ab, e in cols.items()}, 0, k - j)
    # one fresh variable per (shift matrix, j, k), the layout
    # assemble_shift_point folds back, even where L has fewer variables
    M = LinearPencil(f, sd, shift.n * d * d, entries)
    crow = DenseMatrix.zeros(f, 1, sd)
    crow.data[(entry.row - 1) * d] = f.one
    bcol = DenseMatrix.zeros(f, sd, 1)
    for i in range(sd):
        bcol.data[i] = base_inv.at(i, (entry.col - 1) * d)
    return RecognizableSeries(crow, M, bcol)
