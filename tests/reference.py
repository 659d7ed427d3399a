"""The textbook reference for exact elimination: Gaussian elimination with
first-nonzero pivoting through the field's own operations, for any field.
It shares no code with ncrat's elimination routines (_sparse and the
dense kernel), so tests check rank_of, solve, invert, PencilOracle.rank_at
and RealizedEntry.value_at against it rather than against each other."""

from ncrat.field import DenseMatrix, Singular


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

