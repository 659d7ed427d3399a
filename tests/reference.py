"""Reference implementations that tests check ncrat against; none of them
is run by the package itself.

The textbook reference for exact elimination: Gaussian elimination with
first-nonzero pivoting through the field's own operations, for any field.
It shares no code with ncrat's elimination routines (_sparse and the
dense kernel), so tests check rank_of, solve, invert, PencilOracle.rank_at
and RealizedEntry.value_at against it rather than against each other.

Also the reference for rit_test's early ZERO: rit_full_loop, the
randomized test with no shrunk-subspace search; and for verify_strong,
verify_strong_gate_first, which asks the gate at the first tuple before
it evaluates any.  And the references for the search itself:
shrunk_subspace_reference, the second Wong sequence with [A | -W]
eliminated afresh at every step by nullspace_sparse and S and T kept as
row_basis (both read off the reduced row echelon form by dense
Gauss-Jordan elimination), and check_shrunk_dense, its check on dense
products and rank_of.

And the reference for ncrank_skew: ncrank_skew_full, the bordered
reduction pencil over the full entry pencils rather than their kept
reductions, with the certificate assembled from the inverses of the full
entry pencils' evaluations.

And the direct evaluations and symbolic expansions that the compiled
pencils and series are checked against:
- eval_abp, a branching program as the product of its evaluated layers,
  and eval_idrrsc, the inversely disjoint decomposition evaluated
  bottom-up with its inverses taken directly;
- expand_abp and symbolic_truncation, a branching program and a series
  truncation expanded in the free algebra (freepoly);
- full_eval, a series' value (c x I)(I - M(t))^{-1}(b x I) by one solve,
  and scaling_scan, the scaling search by brute force over every scalar;
- blowup_shift, the generic-matrix blow-up of a pencil around a shift.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import freepoly
from ncrat.circuit import (Abp, BlowupExceeded, IdrCircuit, LinForm, Undefined,
                           eval_circuit)
from ncrat.field import (DenseMatrix, Field, MatrixTuple, PrimeField,
                         Singular, invert, is_invertible, kron, rank_of,
                         sample_tuple, solve)
from ncrat.pencil import (LinearPencil, PencilOracle, dense_block,
                          eval_pencil, place_block)
from ncrat.rank import (DivisibilityAnomaly, RankParams, RankResult, SkewMatrix,
                        build_reduction_pencil, ncrank_pencil)
from ncrat.rit import RitParams, RitVerdict, StrongReport, _gate_oracle
from ncrat.series import RecognizableSeries


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
    oracle = _gate_oracle(c, field)
    size = oracle.size
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


def verify_strong_gate_first(H, corpus, field) -> StrongReport:
    """verify_strong with the gate asked first: a circuit whose gate
    oracle is singular at the first tuple, and proved singular everywhere
    by a shrunk subspace found there, is hit by none and not evaluated;
    every other circuit, one past the tree cap included, is evaluated at
    each tuple in turn."""
    results = []
    for label, circ in corpus:
        tuples = H.tuples
        if circ.nvars <= H.n and tuples:
            try:
                oracle = _gate_oracle(circ, field)
                if not oracle.is_invertible_at(tuples[0]) \
                        and oracle.shrunk_subspace(tuples[0]) is not None:
                    tuples = ()
            except BlowupExceeded:
                pass
        found = None
        for idx, t in enumerate(tuples):
            if circ.nvars > t.n:
                continue
            try:
                if is_invertible(eval_circuit(circ, t)):
                    found = idx
                    break
            except Undefined:
                continue
        results.append((label, found))
    return StrongReport(tuple(results), total=len(results),
                        hits=sum(found is not None for _, found in results))


def _reduced_echelon(rows: dict, ncols: int, p: int) -> tuple[list, list]:
    """The reduced row echelon form R of M, with rows {i: {j: value}} over
    the columns 0..ncols-1 of the field of characteristic p (0 for Q), as
    dense lists, and the pivot column of each nonzero row of R, which come
    first: dense Gauss-Jordan elimination with first-nonzero pivoting, over
    F_p through the field's own operations.  Over Q it runs on integer
    rows (_reduced_echelon_q); R is unique, so the result is the same."""
    if not p:
        return _reduced_echelon_q(rows, ncols)
    f = PrimeField(p)
    a = [[f.normalize(row.get(j, 0)) for j in range(ncols)] for row in rows.values()]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if not f.is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv(a[r][c])
        nonzero = [(q, f.mul(inv, y)) for q, y in enumerate(a[r]) if not f.is_zero(y)]
        for q, y in nonzero:
            a[r][q] = y
        for i in range(len(a)):
            if i != r and not f.is_zero(a[i][c]):
                fac, row = a[i][c], a[i]
                for q, y in nonzero:
                    row[q] = f.sub(row[q], f.mul(fac, y))
        pivots.append(c)
    return a, pivots


def _reduced_echelon_q(rows: dict, ncols: int) -> tuple[list, list]:
    """_reduced_echelon over Q, fraction-free: each row is scaled to
    integers by its denominators' lcm, the pivot row a_r clears column c of
    every other row a_i as a_i <- (v a_i - u a_r) / g with v = a_r[c], u =
    a_i[c] and g = gcd(u, v), the updated row is divided by the gcd of its
    entries, and each pivot row is divided by its pivot at the end."""
    a = []
    for row in rows.values():
        vals = [Fraction(row.get(j, 0)) for j in range(ncols)]
        den = lcm(*(x.denominator for x in vals))
        a.append([x.numerator * (den // x.denominator) for x in vals])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        for i, row in enumerate(a):
            if i != r and row[c]:
                g = gcd(prow[c], row[c])
                v, u = prow[c] // g, row[c] // g
                row = [v * x - u * y for x, y in zip(row, prow)]
                content = gcd(*row)
                a[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
    return ([[Fraction(x, a[q][c]) for x in a[q]] for q, c in enumerate(pivots)]
            + [[Fraction(0)] * ncols for _ in range(len(pivots), len(a))]), pivots


def nullspace_sparse(rows: dict, ncols: int, p: int) -> dict:
    """A basis of {x : M x = 0} for M with rows {i: {j: value}} over the
    columns 0..ncols-1, keyed as _sparse.kernel keys it: for each pivotless
    column g, the x {j: value} with x_g = 1 and 0 at the other pivotless
    columns, read off M's reduced row echelon form R as x_c = -R_qg at the
    pivot column c of each row q (_reduced_echelon)."""
    R, pivots = _reduced_echelon(rows, ncols, p)
    return {g: {g: 1, **{c: -R[q][g] % p if p else -R[q][g]
                         for q, c in enumerate(pivots) if R[q][g]}}
            for g in range(ncols) if g not in pivots}


def row_basis(rows: dict, p: int) -> list[dict]:
    """The reduced echelon basis {j: value} of the span of the rows {i: {j:
    value}}: the nonzero rows of their reduced row echelon form."""
    R, pivots = _reduced_echelon(rows, 1 + max((j for row in rows.values() for j in row),
                                               default=-1), p)
    return [{j: x for j, x in enumerate(row) if x} for row in R[:len(pivots)]]


def shrunk_subspace_reference(oracle: PencilOracle, t: MatrixTuple,
                              deficit: int = 1) -> DenseMatrix | None:
    """PencilOracle.shrunk_subspace as each step eliminating [A | -W] afresh:
    U = A^-1(T x F^d) is the u-part of the kernel of [A | -W], W a basis of
    T x F^d, S the row basis of U's slices and T' that of the images A_k s
    of all of S; checked by check_shrunk_dense."""
    n, d = oracle.core.size, t.d
    if n == 0 or oracle._dense_at(d):
        return None
    p, nd = oracle.field.p, n * d
    by_col: dict[int, list] = {}
    for (r, c), e in oracle.core.entries.items():
        by_col.setdefault(c, []).append((r, e))
    evaluated = oracle._eval_rows(t)
    T: list[dict] = []              # basis {i: value} of T
    while True:
        rows = {i: dict(row) for i, row in evaluated.items()}
        for q, tau in enumerate(T):    # -W: column nd + q d + a is tau x e_a
            for i, v in tau.items():
                for a in range(d):
                    rows[i * d + a][nd + q * d + a] = p - v
        kernel = nullspace_sparse(rows, nd + len(T) * d, p)
        if any(nd + c not in kernel for c in range(len(T) * d)):
            return None
        slices: dict[tuple, dict] = {}
        for f, x in kernel.items():
            for j, v in x.items():
                if j < nd:
                    i, a = divmod(j, d)
                    slices.setdefault((f, a), {})[i] = v
        S = row_basis(dict(enumerate(slices.values())), p)
        images: dict[tuple, dict] = {}     # (s, k) -> A_k s
        for q, s in enumerate(S):
            for c, x in s.items():
                for r, e in by_col.get(c, ()):
                    for k, v in e.items():
                        img = images.setdefault((q, k), {})
                        y = img.get(r, 0) + v * x
                        img[r] = y % p if p else y
        grown = row_basis(
            {m: {r: y for r, y in img.items() if y}
             for m, img in enumerate(images.values())}, p)
        if len(S) - len(grown) >= deficit:
            break
        if len(grown) == len(T):
            return None
        T = grown
    norm = oracle.field.normalize
    basis = DenseMatrix(oracle.field, n, len(S),
                        [norm(s.get(i, 0)) for i in range(n) for s in S])
    return basis if check_shrunk_dense(oracle.core, basis, deficit) else None


def check_shrunk_dense(core: LinearPencil, S: DenseMatrix, deficit: int = 1) -> bool:
    """check_shrunk on a dense matrix of images filled slot by slot through
    the field's operations, ranked by rank_of."""
    if S.rows != core.size:
        raise ValueError("subspace basis must have one row per pencil row")
    f, s = core.field, S.cols
    width = (core.nvars + 1) * s
    images = DenseMatrix.zeros(f, core.size, width)
    for (r, c), e in core.entries.items():
        for k, v in e.items():
            at = r * width + k * s
            for q in range(s):
                images.data[at + q] = f.add(images.data[at + q], f.mul(v, S.at(c, q)))
    return rank_of(S) - rank_of(images) >= deficit


# -- branching programs and the inversely disjoint decomposition -------------


def _eval_form(form: LinForm, t: MatrixTuple) -> DenseMatrix:
    field = t.field
    out = DenseMatrix.zeros(field, t.d, t.d)
    for k, v in form.items():
        c = field.normalize(v)
        if k == 0:
            out = out.add(DenseMatrix.identity(field, t.d).scale(c))
        else:
            out = out.add(t.mats[k - 1].scale(c))
    return out


def eval_abp(a: Abp, t: MatrixTuple) -> DenseMatrix:
    """Product of the evaluated layer matrices (block entry at source/sink)."""
    field = t.field
    cur = None
    for m, rows, cols in zip(a.layers, a.widths, a.widths[1:]):
        big = DenseMatrix.zeros(field, rows * t.d, cols * t.d)
        for (i, j), form in m.items():
            blk = _eval_form(form, t)
            for bi in range(t.d):
                for bj in range(t.d):
                    big.data[(i * t.d + bi) * cols * t.d + j * t.d + bj] = \
                        blk.at(bi, bj)
        cur = big if cur is None else cur.matmul(big)
    return cur


def expand_abp(a: Abp, field: Field) -> freepoly.NcPoly:
    """Symbolic expansion into a free-algebra polynomial."""

    def form_poly(form: LinForm):
        p = freepoly.NcPoly.zero(field)
        for k, v in form.items():
            mono = freepoly.NcPoly.const(field, v) if k == 0 else \
                freepoly.scale(v, freepoly.NcPoly.var(field, k))
            p = freepoly.add(p, mono)
        return p

    cur = None
    for m, rows, cols in zip(a.layers, a.widths, a.widths[1:]):
        pm = [[form_poly(m.get((i, j), {})) for j in range(cols)]
              for i in range(rows)]
        if cur is None:
            cur = pm
            continue
        rows, inner, cols = len(cur), len(pm), len(pm[0])
        nxt = [[freepoly.NcPoly.zero(field) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            for k in range(inner):
                if cur[i][k].is_zero():
                    continue
                for j in range(cols):
                    nxt[i][j] = freepoly.add(nxt[i][j],
                                             freepoly.mul(cur[i][k], pm[k][j]))
        cur = nxt
    return cur[0][0]


def eval_idrrsc(idr: IdrCircuit, t: MatrixTuple) -> DenseMatrix:
    """Evaluate the decomposition directly: placeholders take the inverses
    of the evaluated subs.  Raises Undefined(-1) when a sub value or the
    composition is singular.  Post-order with an explicit stack."""
    inverses: list[DenseMatrix] = []     # of evaluated subs awaiting their host
    stack = [(idr, False)]
    while stack:
        node, subs_done = stack.pop()
        if not subs_done:
            stack.append((node, True))
            stack.extend((sub, False) for sub in reversed(node.subs))
            continue
        vals = inverses[len(inverses) - node.m:]
        del inverses[len(inverses) - node.m:]
        value = eval_abp(node.top, MatrixTuple(t.field, t.d, t.mats + tuple(vals)))
        if not stack:
            return value
        try:
            inverses.append(invert(value))
        except Singular:
            raise Undefined(-1) from None


# -- ncrank over the full entry pencils -------------------------------------------


def assemble_full(M: SkewMatrix, t: MatrixTuple) -> DenseMatrix:
    """The grid at t, entry (i, j) the (row, col) block of the inverse of
    its full pencil's evaluation; raises Singular where one is singular."""
    f, m, d = M.field, M.m, t.d
    out = DenseMatrix.zeros(f, m * d, m * d)
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            if e is None:
                continue
            inv = invert(eval_pencil(e.pencil, t))
            for a in range(d):
                for b in range(d):
                    out.data[(i * d + a) * m * d + j * d + b] = \
                        inv.at((e.row - 1) * d + a, (e.col - 1) * d + b)
    return out


def ncrank_skew_full(M: SkewMatrix, params: RankParams = RankParams()) -> RankResult:
    """ncrank_skew ranking build_reduction_pencil(M), the entries' full
    pencils bordered, with the certificate from assemble_full."""
    L = build_reduction_pencil(M)
    offset = L.size - M.m
    schedule = params.d_schedule or tuple(range(1, 2 * M.m + 1))
    base_params = RankParams(d_schedule=schedule, trials=params.trials,
                             seed=params.seed)
    for retry in range(2):
        res = ncrank_pencil(L, base_params if retry == 0 else
                            RankParams(schedule, params.trials * 2, params.seed + 1))
        r = res.r - offset
        if r < 0 or r > M.m:
            continue
        try:
            cert = rank_of(assemble_full(M, res.witness))
        except Singular:
            continue
        if cert == r * res.d:
            per = tuple((d, mx - offset * d,
                         acc - offset if acc is not None else None)
                        for d, mx, acc in res.per_dim)
            return RankResult(r=r, d=res.d, witness=res.witness,
                              certificate=cert, per_dim=per,
                              anomalies=res.anomalies)
    raise DivisibilityAnomaly("witness verification failed; raise trials")


# -- pencils and series ----------------------------------------------------------


def blowup_shift(L: LinearPencil, m: int, shift: MatrixTuple) -> LinearPencil:
    """Substitute x_i by a generic m x m matrix of fresh variables around a
    base point: the constant term becomes A0 x I_m + sum Ai x shift_i, and
    the coefficient of the fresh variable z^{(i)}_{jk} is Ai x E_jk.  The
    result has size s*m over n*m^2 variables, ordered i-major then row-major
    in (j, k)."""
    if shift.n != L.nvars:
        raise ValueError("shift tuple must match the pencil's variable count")
    if shift.d != m:
        raise ValueError("shift dimension must equal the blow-up dimension")
    entries = dense_block(eval_pencil(L, shift), 0)
    for (r, c), e in L.entries.items():
        # entry (r, c) of Ai x E_jk sits at (r m + j, c m + k)
        place_block(entries, {(j, k): {(i - 1) * m * m + j * m + k + 1: v
                                       for i, v in e.items() if i}
                              for j in range(m) for k in range(m)}, r * m, c * m)
    return LinearPencil(L.field, L.size * m, L.nvars * m * m, entries)


def full_eval(S: RecognizableSeries, t: MatrixTuple) -> DenseMatrix:
    """(c x I)(I - M(t))^{-1}(b x I); raises Singular when I - M(t) is not
    invertible (the series value is undefined at t)."""
    f = S.field
    eye = DenseMatrix.identity(f, t.d)
    Mt = eval_pencil(S.M, t)
    return kron(S.c, eye).matmul(solve(DenseMatrix.identity(f, Mt.rows).sub(Mt),
                                       kron(S.b, eye)))


def scaling_scan(S: RecognizableSeries, t: MatrixTuple,
                 cap: int = 64) -> tuple[int, DenseMatrix] | None:
    """The first tau in 1 .. p - 1 at which the series' value at the scaled
    tuple tau t is defined and nonzero, with that value, or None; the scan
    stops at cap over Q and over fields with more than cap + 1 elements.
    Each value is (c x I) _invert_generic(I - M(tau t)) (b x I), with M
    evaluated at the scaled matrices themselves."""
    f = S.field
    eye = DenseMatrix.identity(f, t.d)
    cb, bb = kron(S.c, eye), kron(S.b, eye)
    last = min(cap, f.p - 1) if f.kind == "prime" else cap
    for tau in range(1, last + 1):
        scaled = MatrixTuple(f, t.d, tuple(m.scale(f.normalize(tau))
                                           for m in t.mats))
        Mt = eval_pencil(S.M, scaled)
        try:
            inv = _invert_generic(DenseMatrix.identity(f, Mt.rows).sub(Mt))
        except Singular:
            continue
        value = cb.matmul(inv).matmul(bb)
        if not value.is_zero():
            return tau, value
    return None


def symbolic_truncation(S: RecognizableSeries, k: int) -> freepoly.NcPoly:
    """Exact expansion of sum_{i<=k} c^t M^i b in the free algebra."""
    f = S.field
    s = S.size

    def entry_poly(i: int, j: int) -> freepoly.NcPoly:
        e = S.M.entries.get((i, j), {})
        return freepoly.NcPoly(f, {(v,): c for v, c in e.items() if v})

    Mp = [[entry_poly(i, j) for j in range(s)] for i in range(s)]
    # state = c^t M^i as a row of polynomials
    state = [freepoly.NcPoly.const(f, S.c.at(0, j)) for j in range(s)]
    acc = freepoly.NcPoly.zero(f)

    def dot_b(row) -> freepoly.NcPoly:
        out = freepoly.NcPoly.zero(f)
        for j in range(s):
            out = freepoly.add(out, freepoly.scale(S.b.at(j, 0), row[j]))
        return out

    acc = dot_b(state)
    for _ in range(k):
        nxt = []
        for j in range(s):
            cell = freepoly.NcPoly.zero(f)
            for i in range(s):
                if not state[i].is_zero() and not Mp[i][j].is_zero():
                    cell = freepoly.add(cell, freepoly.mul(state[i], Mp[i][j]))
            nxt.append(cell)
        state = nxt
        acc = freepoly.add(acc, dot_b(state))
    return acc
