"""Noncommutative rank of matrices whose entries are realized by small
pencils: the bordered reduction to one linear pencil, blow-up rank with a
verified witness, and the Schur-step rank identity at the numeric level.

The reduction places the nonzero entry pencils on a diagonal and borders
each at its own designated entry with a unit row and column, routing entry
(i,j) of the inverse grid into position (i,j) of an m x m zero corner; a
zero entry adds nothing.  Its noncommutative rank exceeds the input's by
exactly the sum of the entry pencil sizes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

from .circuit import ParseError, parse_expr, to_idrrsc
from .field import (MAX_DIM, DenseMatrix, Field, MatrixTuple, Singular,
                    field_name, rank_of, sample_tuple, solve)
from .pencil import (LinearPencil, PencilOracle, RealizedEntry, compile_idrrsc,
                     place_block, read_pencil)


class NotInvertiblePencil(Exception):
    """An entry pencil looks singular at every probed dimension; the entry
    value is undefined as a skew-field element here.  make_skew_matrix sets
    `entry`, the 0-indexed (row, col) of the grid entry."""

    entry: tuple[int, int] | None = None


class DivisibilityAnomaly(Exception):
    """The observed maximum rank is not a multiple of the final blow-up
    dimension even after the retry; raise trials or the field size."""


@dataclass(frozen=True)
class SkewMatrix:
    """m x m grid of realized entries over nvars variables, None for a
    zero entry; every entry pencil passed the randomized invertibility
    probe.  common_size, the largest entry pencil and at least 2, is only
    reported."""

    m: int
    entries: tuple[tuple[RealizedEntry | None, ...], ...]
    common_size: int
    nvars: int
    field: Field


@dataclass(frozen=True)
class RankResult:
    r: int
    d: int
    witness: MatrixTuple
    certificate: int                       # rank of the evaluated matrix, r*d
    # (d, max_rank, accepted r_d or None); a dimension decided by the
    # ceiling, a multiple of d, reads (d, r d, r) without sampling
    per_dim: tuple = ()
    anomalies: int = 0


@dataclass(frozen=True)
class RankParams:
    d_schedule: tuple[int, ...] | None = None
    trials: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.d_schedule and min(self.d_schedule) < 1:
            raise ValueError(f"blow-up dimensions must be at least 1, "
                             f"got {min(self.d_schedule)}")
        if self.d_schedule and max(self.d_schedule) > MAX_DIM:
            raise ValueError(f"blow-up dimensions must be at most {MAX_DIM}, "
                             f"got {max(self.d_schedule)}")


def probe_invertible(oracle: PencilOracle, seed: int = 0) -> MatrixTuple | None:
    """A tuple at which the oracle's pencil is invertible, from 8 seeded
    trials at each of the dimensions 1, 2 and 3; None when every trial is
    singular."""
    rng = random.Random(seed)
    for d in (1, 2, 3):
        for _ in range(8):
            t = sample_tuple(oracle.field, max(oracle.core.nvars, 1), d, rng)
            if oracle.is_invertible_at(t):
                return t
    return None


def make_skew_matrix(grid, field: Field) -> SkewMatrix:
    """Check a square grid of realized entries (None marks a zero entry),
    widen every entry to the grid's variables and probe each entry pencil
    for invertibility; NotInvertiblePencil names the first that fails.  An
    entry whose oracle's elimination proves it invertible everywhere (a
    branching program's pencil, say) is not probed."""
    m = len(grid)
    if any(len(row) != m for row in grid):
        raise ValueError("grid must be square")
    nvars = max([e.nvars for row in grid for e in row if e is not None],
                default=0)
    entries = tuple(tuple(None if e is None else
                          replace(e, pencil=replace(e.pencil, nvars=nvars))
                          for e in row) for row in grid)
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if e is not None and not e.oracle.invertible_everywhere \
                    and probe_invertible(e.oracle, seed=17 * i + j) is None:
                exc = NotInvertiblePencil(
                    "entry pencil singular at all probed dimensions")
                exc.entry = (i, j)
                raise exc
    size = max([e.size for row in entries for e in row if e is not None],
               default=2)
    return SkewMatrix(m=m, entries=entries, common_size=max(size, 2),
                      nvars=nvars, field=field)


def build_reduction_pencil(M: SkewMatrix) -> LinearPencil:
    """The nonzero entry pencils on a diagonal, each bordered at its own
    designated entry as realize_inverse borders one, over an m x m zero
    corner; size the sum of the entry sizes plus m."""
    f = M.field
    corner = sum(e.size for row in M.entries for e in row if e is not None)
    entries: dict = {}
    o = 0
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            if e is None:
                continue
            place_block(entries, e.pencil.entries, o, o)
            # column j of the corner meets the designated column's row,
            # row i of the corner the designated row's column
            place_block(entries, {(o + e.col - 1, corner + j): {0: f.one},
                                  (corner + i, o + e.row - 1): {0: f.neg(f.one)}})
            o += e.size
    return LinearPencil(f, corner + M.m, M.nvars, entries)


def assemble_at(M: SkewMatrix, t: MatrixTuple) -> DenseMatrix:
    """Evaluate the grid entrywise into an (m d) x (m d) matrix; raises
    Singular when some entry pencil is singular at t."""
    f = M.field
    m, d = M.m, t.d
    out = DenseMatrix.zeros(f, m * d, m * d)
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            if e is None:
                continue
            blk = e.value_at(t)
            for a in range(d):
                base = (i * d + a) * (m * d) + j * d
                out.data[base:base + d] = blk.row(a)
    return out


def ncrank_pencil(L: LinearPencil, params: RankParams = RankParams()) -> RankResult:
    """Blow-up rank of a linear pencil: for each scheduled dimension, take
    the maximum evaluated rank over sampled tuples, accept it when it is a
    multiple of d, and report max/d with the first tuple reaching it.

    A certified ceiling c >= ncrank(L), L.size to begin with, ends a
    dimension's trials at the first rank c d, which no tuple can exceed.
    Once the best rank meets c at dimension d0, each later multiple d of
    d0 is decided as (d, c d, c) without sampling: the best tuple blown up
    to dimension d reaches c d.  So r, d, witness and certificate are the
    ones the full trial loop gives, and per_dim and anomalies differ only
    where its trials at a decided d missed c d.  The oracle looks for a
    shrunk subspace of its core with deficit core_size - (r - base) from a
    tuple of rank r d, at a dimension d below the last, at every trial
    whose rank is a new best for its dimension and whose r would be a new
    best below c.  One that check_shrunk accepts proves ncrank(L) <= r, so
    c = r, the result is exact and the dimension's trials end there.
    Otherwise the result is a Monte Carlo lower bound that meets the rank
    with high probability at the largest scheduled dimension."""
    schedule = params.d_schedule or tuple(range(1, L.size + 1))
    oracle = PencilOracle(L)
    ceiling = L.size
    best_r = 0
    best = None
    per_dim = []
    anomalies = 0
    last_d = schedule[-1]

    def certifies(t: MatrixTuple, r: int) -> bool:
        return oracle.shrunk_subspace(t, oracle.core_size - (r - oracle.base)) is not None

    for d in schedule:
        if best is not None and best_r == ceiling and d % best[0] == 0:
            # the best tuple blown up to dimension d has rank ceiling*d,
            # which no tuple exceeds
            per_dim.append((d, ceiling * d, ceiling))
            continue
        rng = random.Random(params.seed * 1_000_003 + d)
        max_rank = -1
        max_t = None
        trials = params.trials
        attempt = 0
        while True:
            for _ in range(trials):
                t = sample_tuple(L.field, max(L.nvars, 1), d, rng)
                rk = oracle.rank_at(t)
                if rk > max_rank:
                    # a certified ceiling here leaves no later trial a
                    # higher rank to find
                    if d != last_d and rk % d == 0 \
                            and (best is None or rk // d > best_r) \
                            and rk // d < ceiling and certifies(t, rk // d):
                        ceiling = rk // d
                    max_rank, max_t = rk, t
                    if rk == ceiling * d:
                        break
            if max_rank % d == 0:
                break
            anomalies += 1
            attempt += 1
            if attempt > 1 or d != last_d:
                break
            trials *= 2  # one doubling retry at the final dimension
        if max_rank % d != 0:
            if d == last_d:
                raise DivisibilityAnomaly(
                    f"max rank {max_rank} not divisible by d={d} after retry")
            per_dim.append((d, max_rank, None))
            continue
        r_d = max_rank // d
        per_dim.append((d, max_rank, r_d))
        if best is None or r_d > best_r:
            best_r = r_d
            best = (d, max_t, max_rank)
    if best is None:
        raise DivisibilityAnomaly("no dimension accepted")
    d, t, cert = best
    return RankResult(r=best_r, d=d, witness=t, certificate=cert,
                      per_dim=tuple(per_dim), anomalies=anomalies)


def ncrank_skew(M: SkewMatrix, params: RankParams = RankParams()) -> RankResult:
    """Noncommutative rank of the grid through the reduction pencil, with a
    witness tuple T satisfying rank(M(T)) = r d exactly; the pencil borders
    the entries' kept reductions (RealizedEntry.reduced), the same elements."""
    L = build_reduction_pencil(replace(M, entries=tuple(
        tuple(e and e.reduced for e in row) for row in M.entries)))
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
            cert = rank_of(assemble_at(M, res.witness))
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


def schur_step(P: DenseMatrix, r: int) -> tuple[DenseMatrix, bool]:
    """Split off an invertible top-left r x r block: returns the complement
    D - C A^{-1} B and whether rank(P) = r + rank(complement) (it always
    does when A is invertible; the flag is a numeric self-check)."""
    if not P.is_square or not (0 < r < P.rows):
        raise ValueError("need 0 < r < size")
    f = P.field
    n = P.rows
    A = DenseMatrix(f, r, r, [P.at(i, j) for i in range(r) for j in range(r)])
    B = DenseMatrix(f, r, n - r, [P.at(i, j) for i in range(r) for j in range(r, n)])
    C = DenseMatrix(f, n - r, r, [P.at(i, j) for i in range(r, n) for j in range(r)])
    D = DenseMatrix(f, n - r, n - r,
                    [P.at(i, j) for i in range(r, n) for j in range(r, n)])
    comp = D.sub(C.matmul(solve(A, B)))  # Singular when A is not invertible
    holds = rank_of(P) == r + rank_of(comp)
    return comp, holds


# -- skew-matrix file format ---------------------------------------------------


def parse_skew_file(text: str, field: Field, base_dir: str = ".") -> SkewMatrix:
    """Header `m <m>`, then m^2 row-major entry lines: `expr <expression>`
    (compiled through the circuit pipeline) or `pencil <path>` (a pencil
    file with a realize trailer).  Blank lines and `#` comments are
    skipped.  Malformed input raises ValueError naming the line."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip() and not ln.strip().startswith("#")]
    eof = len(text.splitlines()) + 1
    if not lines:
        raise ValueError(f"line {eof}: end of file, missing m header")
    no, head = lines[0]
    parts = head.split()
    try:
        if parts[0] != "m" or len(parts) != 2:
            raise ValueError("expected `m <size>` header")
        m = int(parts[1])
        if m < 1:
            raise ValueError(f"m {m} is out of range")
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    body = lines[1:]
    if len(body) != m * m:
        where = body[m * m][0] if len(body) > m * m else eof
        raise ValueError(f"line {where}: expected {m * m} entries, found {len(body)}")
    grid = [[None] * m for _ in range(m)]
    for idx, (no, ln) in enumerate(body):
        try:
            grid[idx // m][idx % m] = _skew_entry(ln, field, base_dir)
        except (ValueError, ParseError) as exc:
            raise ValueError(f"line {no}: {exc}") from None
    try:
        return make_skew_matrix(grid, field)
    except NotInvertiblePencil as exc:
        i, j = exc.entry
        raise ValueError(f"line {body[i * m + j][0]}: {exc}") from None


def _skew_entry(line: str, field: Field, base_dir: str) -> RealizedEntry | None:
    """One entry line of a skew-matrix file; None is the zero entry."""
    kind, _, rest = line.partition(" ")
    rest = rest.strip()
    if kind == "expr":
        if rest == "0":
            return None
        return compile_idrrsc(to_idrrsc(parse_expr(rest)), field)
    if kind == "pencil":
        try:
            L, realize = read_pencil(os.path.join(base_dir, rest))
        except OSError as exc:
            raise ValueError(f"cannot read pencil file {rest!r}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValueError(f"pencil file {rest!r}: {exc}") from None
        if realize is None:
            raise ValueError(f"pencil file {rest!r} lacks a realize trailer")
        if L.field != field:
            raise ValueError(f"pencil file {rest!r} is over {field_name(L.field)}, "
                             f"but the working field is {field_name(field)}")
        return RealizedEntry(L, realize[0], realize[1])
    raise ValueError(f"unknown entry kind {kind!r}")


def read_skew_file(path: str, field: Field) -> SkewMatrix:
    with open(path) as fh:
        return parse_skew_file(fh.read(), field,
                               base_dir=os.path.dirname(path) or ".")
