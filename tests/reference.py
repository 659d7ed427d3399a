"""The textbook reference for exact elimination: Gaussian elimination with
first-nonzero pivoting through the field's own operations, for any field.
It shares no code with ncrat's elimination routines (_sparse and the
dense kernel), so tests check rank_of, solve, invert, PencilOracle.rank_at
and RealizedEntry.value_at against it rather than against each other.

Also the reference for rit_test's early ZERO: rit_full_loop, the
randomized test with no shrunk-subspace search."""

import random

from ncrat.circuit import Undefined, eval_circuit
from ncrat.field import DenseMatrix, Singular, is_invertible, sample_tuple
from ncrat.rit import RitParams, RitVerdict, _gate_oracle


def _rank_generic(m: DenseMatrix) -> int:
    f = m.field
    a = [list(m.row(i)) for i in range(m.rows)]
    n, cols = m.rows, m.cols
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, n):
            if not f.is_zero(a[i][c]):
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(r + 1, n):
            if not f.is_zero(a[i][c]):
                fac = a[i][c]
                a[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(a[i], a[r])]
        r += 1
        if r == n:
            break
    return r


def _invert_generic(m: DenseMatrix) -> DenseMatrix:
    f = m.field
    n = m.rows
    a = [list(m.row(i)) + [f.one if j == i else f.zero for j in range(n)]
         for i in range(n)]
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, n):
            if not f.is_zero(a[i][c]):
                piv = i
                break
        if piv is None:
            raise Singular("matrix is singular")
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(n):
            if i != r and not f.is_zero(a[i][c]):
                fac = a[i][c]
                a[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(a[i], a[r])]
        r += 1
    return DenseMatrix(f, n, n, [a[i][n + j] for i in range(n) for j in range(n)])



def rit_full_loop(c, field, params: RitParams = RitParams()) -> RitVerdict:
    """rit_test without the search: the gate oracle ranks every trial of
    every dimension, in the same rng order, until a tuple at which the
    circuit is defined with an invertible value."""
    size, oracle = _gate_oracle(c, field)
    max_dim = params.max_dim or min(size, params.dim_cap)
    rng = random.Random(params.seed)
    trials_run = 0
    for d in range(1, max_dim + 1):
        for _ in range(params.trials):
            trials_run += 1
            t = sample_tuple(field, max(c.nvars, 1), d, rng)
            if oracle.rank_at(t) != size * d:
                continue
            try:
                value = eval_circuit(c, t)
            except Undefined:
                continue
            if is_invertible(value):
                return RitVerdict("nonzero", witness=t, dimension=d,
                                  pencil_size=size, trials_run=trials_run,
                                  max_dim=max_dim)
    return RitVerdict("zero", pencil_size=size,
                      trials_run=max_dim * params.trials, max_dim=max_dim,
                      error_bound_num=size * max_dim,
                      error_bound_den=field.sample_set_size())
