"""Rational identity testing and the strong hitting-set pipeline.

A circuit is nonzero in the free skew field exactly when its inverse is
defined somewhere.  The compiled pencil of the inverse (the gate) is
invertible wherever the circuit is defined with an invertible value, and
may be elsewhere: inv(x1 - x1)'s is invertible everywhere.  So the
randomized test samples tuples of growing dimension and evaluates the
circuit at each: a defined, invertible value is a NONZERO verdict with its
witness, sound as it stands.  The gate is compiled and reduced only where
a trial misses, and asked one question there: the first miss of each
dimension below the last searches its core for a shrunk subspace.  Zero
verdicts are one-sided Monte Carlo, except where one is found (over every
field, Q included): that proves the gate singular everywhere, so the
circuit is nowhere defined with an invertible value, and the test ends
there with the exact ZERO verdict, trial count and error bound the
remaining trials would give.  The gate's size, which the verdict reports,
comes from the compiler's size pass alone.

The hitting-set generator runs the desk-scale version of the pipeline:
variable reduction to 2(h+1) variables, generic matrices of an explicit
dimension d in place of the conditional logarithmic bound, sparse-point
assignments at prime-power values (reduced mod p over F_p, exact integers
over Q), and each assignment carried back by transport_tuple, as a witness
for a reduced circuit is: p_i = sum_j q_{j0} q_{j1}^i q_{j0}.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .circuit import (MAX_VARS, BlowupExceeded, IdrCircuit, RationalCircuit,
                      Undefined, classify, eval_circuit, parse_expr, to_idrrsc,
                      transport_tuple)
from .field import (MAX_DIM, DenseMatrix, Field, MatrixTuple, is_invertible,
                    sample_tuple)
from .pencil import (PencilOracle, RealizedEntry, compile_condensed, compile_idrrsc,
                     compiled_size, realize_inverse)
from .series import (FieldTooSmall, assemble_shift_point, scaling_search,
                     series_is_zero, shifted_entry_series)


class WitnessNotFound(Exception):
    """Trials exhausted without a definedness + invertibility witness."""


@dataclass(frozen=True)
class RitParams:
    max_dim: int | None = None        # None: min(pencil size, dim_cap)
    dim_cap: int = 8
    trials: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("max_dim", "dim_cap", "trials"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("max_dim", "dim_cap"):         # a dimension rit may sample
            value = getattr(self, name)
            if value is not None and value > MAX_DIM:
                raise ValueError(f"{name} must be at most {MAX_DIM}, got {value}")


@dataclass(frozen=True)
class RitVerdict:
    kind: str                          # "zero" | "nonzero"
    witness: MatrixTuple | None = None
    dimension: int = 0
    pencil_size: int = 0
    trials_run: int = 0
    max_dim: int = 0
    error_bound_num: int = 0           # per-trial, over the sampled set size
    error_bound_den: int = 1

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


def compile_circuit(c: RationalCircuit, field: Field) -> RealizedEntry:
    return compile_idrrsc(to_idrrsc(c), field)


@functools.lru_cache(maxsize=16)
def _normal_form(c: RationalCircuit) -> IdrCircuit:
    """to_idrrsc(c), shared by rit_test's size pass and the gate's compile."""
    return to_idrrsc(c)


@functools.lru_cache(maxsize=16)
def _gate_oracle(c: RationalCircuit, field: Field) -> PencilOracle:
    """The oracle of the bordered pencil for the circuit's inverse (its
    size is the gate's), compiled and reduced as it is built: invertible
    wherever the circuit is defined with an invertible value, but not only
    there.  rit_test and verify_strong build it only at a trial that
    misses, and this cache shares it between them and strong_witness.

    The border goes around compile_condensed's entry, not compile_circuit's.
    It touches none of the P unit pivots that entry leaves out, so the
    oracle, told of them, has the paper gate's size, base and core."""
    entry, pivoted = compile_condensed(_normal_form(c), field)
    return PencilOracle(realize_inverse(entry).pencil, pivoted=pivoted)


def rit_test(c: RationalCircuit, field: Field,
             params: RitParams = RitParams()) -> RitVerdict:
    """Randomized black-box zero test; NonZero verdicts ship a tuple at
    which the circuit is defined with an invertible value, found by direct
    evaluation.

    pencil_size, which sets max_dim, is the paper gate's: compile_idrrsc's
    size pass, plus the border.  Each trial evaluates.  The first miss
    (undefined, or a singular value) of each dimension below max_dim builds
    the gate oracle, once per circuit and field, and searches its core at
    that tuple for a shrunk subspace, none at once where core(t) is
    invertible.  One that check_shrunk accepts makes every later trial
    miss, so the test returns the ZERO verdict the full trial loop would
    give (the nominal max_dim * trials and the per-trial bound) at once,
    and exact.  The gate is invertible wherever the evaluation hits, so
    asking it only at a miss changes no verdict, witness or trial count."""
    size = compiled_size(_normal_form(c)) + 1       # realize_inverse's border
    max_dim = params.max_dim or min(size, params.dim_cap)
    zero = RitVerdict("zero", pencil_size=size,
                      trials_run=max_dim * params.trials, max_dim=max_dim,
                      error_bound_num=size * max_dim,
                      error_bound_den=field.sample_set_size())
    nv = max(c.nvars, 1)
    trials_run = 0
    rng = random.Random(params.seed)
    for d in range(1, max_dim + 1):
        searched = d == max_dim        # the last dimension ends the test anyway
        for _ in range(params.trials):
            trials_run += 1
            t = sample_tuple(field, nv, d, rng)
            try:
                if is_invertible(eval_circuit(c, t)):
                    return RitVerdict("nonzero", witness=t, dimension=d,
                                      pencil_size=size, trials_run=trials_run,
                                      max_dim=max_dim)
            except Undefined:
                pass
            if not searched:
                # a shrunk subspace fails the gate at every later trial, so
                # the loop's verdict is known: the same ZERO, now exact
                searched = True
                if _gate_oracle(c, field).shrunk_subspace(t) is not None:
                    return zero
    return zero


def strong_witness(c: RationalCircuit, field: Field,
                   params: RitParams = RitParams()) -> MatrixTuple:
    """A tuple where the circuit is defined and its value invertible."""
    verdict = rit_test(c, field, params)
    if verdict.kind != "nonzero":
        raise WitnessNotFound("no invertible image found; the circuit may be zero")
    return verdict.witness


# -- sparse hitting points -----------------------------------------------------


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    cand = 2
    while len(primes) < n:
        if all(cand % q for q in primes if q * q <= cand):
            primes.append(cand)
        cand += 1
    return primes


def sparse_points(nvars: int, kappa: int, p: int | None = None) -> list[list[int]]:
    """Points (q_1^j, ..., q_nvars^j) for j = 0..kappa-1, q_i the first nvars
    primes, reduced mod p when p is given.  Over the integers distinct
    monomials take distinct values, so any nonzero kappa-sparse commutative
    polynomial survives at some point (Vandermonde argument).  Mod p they
    need not: a q_i equal to p is 0 (the fourth prime over F_7), and since
    q^(p-1) = 1 the powers of each q_i repeat with a period dividing p - 1."""
    primes = _first_primes(nvars)
    return [[pow(q, j, p) for q in primes] for j in range(kappa)]


@dataclass(frozen=True)
class HittingSet:
    tuples: tuple[MatrixTuple, ...]
    n: int
    s: int
    h: int
    d: int
    kappa: int


def hitting_set_generate(n: int, s: int, h: int, d: int, kappa: int | None,
                         field: Field) -> HittingSet:
    """Desk-scale strong hitting set for circuits with at most n variables,
    size s, inversion height h: each sparse point fills the 2(h+1) d x d
    generic matrices, and transport_tuple carries them back through p_i =
    sum_j q_{j0} q_{j1}^i q_{j0}.  Over F_p points and products are reduced
    as they are made; over Q they are ints until each entry of the result
    is normalized once, to a Fraction.  ValueError for s, d or kappa below
    1, a negative n or h, n above MAX_VARS (every point builds n matrices)
    or d above MAX_DIM."""
    for name, value, least in (("nvars", n, 0), ("size", s, 1), ("height", h, 0),
                               ("dim", d, 1), ("kappa", kappa, 1)):
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if n > MAX_VARS:
        raise ValueError(f"nvars must be at most {MAX_VARS}, got {n}")
    if d > MAX_DIM:
        raise ValueError(f"dim must be at most {MAX_DIM}, got {d}")
    if kappa is None:
        kappa = 2 * s * d
    nq, dd = 2 * (h + 1), d * d
    norm = field.normalize
    tuples = []
    for pt in sparse_points(nq * dd, kappa, field.p or None):
        q = MatrixTuple(field, d, tuple(DenseMatrix(field, d, d, pt[k * dd:(k + 1) * dd])
                                        for k in range(nq)))
        tuples.append(MatrixTuple(field, d, tuple(
            DenseMatrix(field, d, d, [norm(x) for x in m.data])
            for m in transport_tuple(q, n, h).mats)))
    return HittingSet(tuple(tuples), n=n, s=s, h=h, d=d, kappa=kappa)


@dataclass(frozen=True)
class StrongReport:
    results: tuple            # (label, hit index or None)
    total: int
    hits: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 1.0


def verify_strong(H: HittingSet, corpus, field: Field) -> StrongReport:
    """Per circuit: does some tuple give a defined, invertible value.  A
    miss at the first tuple asks the circuit's gate, as rit_test's first
    miss does: a shrunk subspace found there proves that no tuple hits, so
    the rest are not evaluated.  A circuit past the tree cap has no gate,
    and all its tuples are evaluated."""
    results = []
    for label, circ in corpus:
        found = None
        for idx, t in enumerate(H.tuples):
            if circ.nvars > t.n:
                continue
            try:
                if is_invertible(eval_circuit(circ, t)):
                    found = idx
                    break
            except Undefined:
                pass
            if idx == 0:
                try:
                    oracle = _gate_oracle(circ, field)
                except BlowupExceeded:
                    continue
                if oracle.shrunk_subspace(t) is not None:
                    break
        results.append((label, found))
    hits = sum(found is not None for _, found in results)
    return StrongReport(tuple(results), total=len(results), hits=hits)


# -- dimension bootstrapping experiment -----------------------------------------


# bootstrap_dimension expands a realized entry into a series only up to
# this size, the entry pencil's size times d: series_is_zero evaluates the
# series densely, at a dimension of about half its size.
SERIES_CAP = 24


@dataclass(frozen=True)
class BootstrapRow:
    d: int
    defined: bool
    invertible: bool
    route: str                 # "direct" | "series"
    series_size: int = 0
    truncation_nonzero: bool | None = None
    tau: int | None = None
    assembled_dim: int | None = None      # d * (truncation-test dimension)
    assembled_nonzero: bool | None = None


@dataclass(frozen=True)
class BootstrapReport:
    height: int
    rows: tuple[BootstrapRow, ...]
    smallest_defined: int | None
    smallest_invertible: int | None


def bootstrap_dimension(c: RationalCircuit, field: Field,
                        schedule=(1, 2, 3, 4), trials: int = 16,
                        seed: int = 0) -> BootstrapReport:
    """For each scheduled dimension, look for a definedness point and an
    invertible image.  Where the compiled pencil's size times the dimension
    is at most SERIES_CAP, the shift-expansion route is exercised as well:
    expand the realized entry around the definedness point, zero-test the
    truncated series, and run the scaling search; its success is reported
    as the series route.
    ValueError for trials below 1, where no trial would read as "never
    defined", and for a scheduled dimension above MAX_DIM."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max(schedule, default=1) > MAX_DIM:
        raise ValueError(f"blow-up dimensions must be at most {MAX_DIM}, "
                         f"got {max(schedule)}")
    entry = compile_circuit(c, field)
    rows = []
    smallest_def = None
    smallest_inv = None
    rng = random.Random(seed)
    nv = max(c.nvars, 1)
    for d in schedule:
        defined = False
        invertible = False
        shift = None
        for _ in range(trials):
            t = sample_tuple(field, nv, d, rng)
            try:
                v = eval_circuit(c, t)
            except Undefined:
                continue
            if not defined:
                defined = True
                shift = t
            if is_invertible(v):
                invertible = True
                break
        route = "direct"
        series_size = 0
        trunc_nonzero = None
        tau = None
        assembled_dim = None
        assembled_nonzero = None
        if defined and entry.size * d <= SERIES_CAP:
            S = shifted_entry_series(entry, shift)
            series_size = S.size
            route = "series"
            verdict = series_is_zero(S, trials=trials, seed=seed + d)
            trunc_nonzero = verdict.kind == "nonzero"
            if trunc_nonzero:
                try:
                    tau, _ = scaling_search(S, verdict.witness)
                except FieldTooSmall:
                    tau = None
                if tau is not None:
                    # fold the series witness back into a point for the
                    # original variables and re-verify by direct evaluation
                    point = assemble_shift_point(shift, verdict.witness, tau)
                    assembled_dim = point.d
                    try:
                        assembled_nonzero = \
                            not eval_circuit(c, point).is_zero()
                    except Undefined:
                        assembled_nonzero = False
        rows.append(BootstrapRow(d=d, defined=defined, invertible=invertible,
                                 route=route, series_size=series_size,
                                 truncation_nonzero=trunc_nonzero, tau=tau,
                                 assembled_dim=assembled_dim,
                                 assembled_nonzero=assembled_nonzero))
        if defined and smallest_def is None:
            smallest_def = d
        if invertible and smallest_inv is None:
            smallest_inv = d
    return BootstrapReport(height=classify(c).height, rows=tuple(rows),
                           smallest_defined=smallest_def,
                           smallest_invertible=smallest_inv)


# -- reference corpus ------------------------------------------------------------


NONZERO_EXPRESSIONS: tuple[tuple[str, str], ...] = (
    ("var", "x1"),
    ("sum", "x1 + x2"),
    ("product", "x1*x2"),
    ("commutator", "x1*x2 - x2*x1"),
    ("inverse", "inv(x1)"),
    ("inverse-sum", "inv(x1) + inv(x2)"),
    ("commutator-inverse", "inv(x1*x2 - x2*x1)"),
    ("sandwich", "x1*inv(x2)*x1"),
    ("resolvent-difference", "inv(x1+x2) - inv(x1)"),
    ("double-inverse", "inv(inv(x1))"),
    ("nested-sum-inverse", "inv(x1 + inv(x2))"),
    ("hua-first-term", "inv(x1 + x1*inv(x2)*x1)"),
    ("cyclic-difference", "x1*x2*x3 - x3*x2*x1"),
    ("conjugate", "inv(x1)*x2*inv(x1)"),
    ("difference", "x1 - x2"),
    ("constant", "2/3"),
    ("commutator-inverse-times", "inv(x1*x2 - x2*x1)*x3"),
    ("harmonic-pair", "inv(inv(x1) + inv(x2))"),
    ("affine-square", "x1 + x1*x1"),
    ("cancelling-product", "inv(x1)*x1"),
    ("postfix-inverse", "(x1 + x2)^-1"),
    ("quadratic-shift", "x1*x1 - x2"),
    ("swap-inverses", "inv(x2)*inv(x1)"),
    ("affine", "x1 + 1"),
)

ZERO_EXPRESSIONS: tuple[tuple[str, str], ...] = (
    ("hua", "inv(x1 + x1*inv(x2)*x1) + inv(x1+x2) - inv(x1)"),
    ("hua-swapped", "inv(x2 + x2*inv(x1)*x2) + inv(x2+x1) - inv(x2)"),
    ("self-difference", "x1 - x1"),
    ("product-difference", "x1*x2 - x1*x2"),
    ("inverse-difference", "inv(x1) - inv(x1)"),
    ("one-minus-unit", "x1*inv(x1) - 1"),
    ("double-inverse-minus", "inv(inv(x1)) - x1"),
    ("unit-of-sum", "(x1+x2)*inv(x1+x2) - 1"),
    ("zero", "0"),
)


def corpus():
    """Parsed reference corpus as (label, circuit, expected_zero) triples."""
    return ([(name, parse_expr(src), False) for name, src in NONZERO_EXPRESSIONS]
            + [(name, parse_expr(src), True) for name, src in ZERO_EXPRESSIONS])
