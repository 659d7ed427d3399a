import os
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ncrat.circuit import formula_to_abp, parse_expr, to_idrrsc
from ncrat.field import (QQ, DenseMatrix, PrimeField, Singular, prime_field,
                         rank_of, sample_tuple)
from ncrat.pencil import (RealizedEntry, compile_idrrsc, eval_pencil, from_abp,
                          pencil_from_rows, realize_inverse)
from ncrat.rank import (NotInvertiblePencil, RankParams,
                        assemble_at, build_reduction_pencil, make_skew_matrix,
                        ncrank_pencil, ncrank_skew, parse_skew_file,
                        read_skew_file, schur_step)
from reference import _rank_generic

F = prime_field()


def entry_of(expr: str):
    return compile_idrrsc(to_idrrsc(parse_expr(expr)), F)


def higman_skew():
    grid = [[entry_of("1"), entry_of("x1")],
            [entry_of("x2"), entry_of("x3 + x1*x2")]]
    return make_skew_matrix(grid, F)


def random_small_entry(rng, nvars=3):
    kind = rng.randrange(5)
    if kind == 0:
        return None  # zero entry
    if kind == 1:
        return entry_of(str(rng.randrange(1, 9)))
    v1 = rng.randrange(1, nvars + 1)
    v2 = rng.randrange(1, nvars + 1)
    if kind == 2:
        return entry_of(f"x{v1}")
    if kind == 3:
        return entry_of(f"x{v1}*x{v2}")
    return realize_inverse(entry_of(f"x{v1}"))  # size 3 inverse gadget


def random_skew(rng, m, nvars=3):
    return make_skew_matrix(
        [[random_small_entry(rng, nvars) for _ in range(m)] for _ in range(m)],
        F)


# -- entry probe -------------------------------------------------------------------

def test_make_skew_matrix_detects_never_invertible():
    # pencil with an identically zero row can never be invertible
    L = pencil_from_rows(F, [[[0, 0], [0, 1]], [[0, 0], [1, 0]]])
    with pytest.raises(NotInvertiblePencil) as exc:
        make_skew_matrix([[RealizedEntry(L, 1, 2)]], F)
    assert exc.value.entry == (0, 0)


def test_make_skew_matrix_probes_only_entries_not_proved_invertible(monkeypatch):
    # a branching program's pencil reduces away once its kept row and
    # column are released, so it is invertible everywhere and never probed;
    # an inverse gadget is probed, and a singular pencil is still refused
    from ncrat import rank
    probed = []
    probe = rank.probe_invertible

    def counted(oracle, seed=0):
        probed.append(oracle)
        return probe(oracle, seed)
    monkeypatch.setattr(rank, "probe_invertible", counted)
    abp = from_abp(formula_to_abp(parse_expr("x1*x2 - x2*x1 + 3")), F)
    assert abp.oracle.invertible_everywhere
    make_skew_matrix([[abp, None], [entry_of("x3 + x1*x2"), entry_of("2")]], F)
    assert probed == []
    gadget = realize_inverse(entry_of("x1"))
    assert not gadget.oracle.invertible_everywhere
    make_skew_matrix([[gadget]], F)
    assert len(probed) == 1
    L = pencil_from_rows(F, [[[0, 0], [0, 1]], [[0, 0], [1, 0]]])
    with pytest.raises(NotInvertiblePencil):
        make_skew_matrix([[abp, RealizedEntry(L, 1, 2)], [None, abp]], F)
    assert len(probed) == 2


# -- reduction pencil ----------------------------------------------------------------

def test_reduction_pencil_size():
    M = higman_skew()
    L = build_reduction_pencil(M)
    assert L.size == sum(e.size for row in M.entries for e in row) + M.m


def test_reduction_single_variable_entry(rng):
    M = make_skew_matrix([[entry_of("x1")]], F)
    L = build_reduction_pencil(M)
    assert L.size == M.entries[0][0].size + 1
    res = ncrank_pencil(L, RankParams(d_schedule=(1, 2), trials=8, seed=0))
    assert res.r - (L.size - M.m) == 1


def test_reduction_zero_matrix():
    M = make_skew_matrix([[None, None], [None, None]], F)
    L = build_reduction_pencil(M)
    assert L.size == M.m
    res = ncrank_pencil(L, RankParams(d_schedule=(1, 2), trials=8, seed=1))
    assert res.r - (L.size - M.m) == 0


def test_reduction_rank_identity_pointwise(rng):
    # rank(L(t)) = (sum of entry sizes) d + rank(M(t)) whenever the entries
    # are invertible
    M = higman_skew()
    L = build_reduction_pencil(M)
    for d in (1, 2):
        t = sample_tuple(F, 3, d, rng)
        lhs = rank_of(eval_pencil(L, t))
        rhs = (L.size - M.m) * d + rank_of(assemble_at(M, t))
        assert lhs == rhs


POLYNOMIALS = ("x1", "3", "x1*x2", "x1*x2 - x2*x1", "x1 + x2*x3", "x2*x2*x1 + 1")


def abp_entry(src, field):
    return from_abp(formula_to_abp(parse_expr(src)), field)


def assert_rank_identity(M, rng, d, tries=3):
    """rank L(t) = (sum of entry sizes) d + rank M(t) at random t of
    dimension d where every entry is invertible; returns how many t were
    compared."""
    L = build_reduction_pencil(M)
    sizes = sum(e.size for row in M.entries for e in row if e is not None)
    assert L.size == sizes + M.m
    compared = 0
    for _ in range(tries):
        t = sample_tuple(M.field, max(M.nvars, 1), d, rng)
        try:
            grid_rank = rank_of(assemble_at(M, t))
        except Singular:
            continue                     # some entry is not invertible at t
        assert rank_of(eval_pencil(L, t)) == sizes * d + grid_rank
        compared += 1
    return compared


@pytest.mark.parametrize("field", [F, prime_field(101), QQ], ids=["M61", "F101", "Q"])
def test_reduction_rank_on_a_mixed_grid(field):
    # branching-program entries designated at (1, N) of sizes 2, 4 and 6, a
    # gadget designated at (4, 4) and zero entries; the top-left 2 x 2 block
    # has full rank, which a border at (1, 1) or with row and column swapped
    # loses
    grid = [[abp_entry("x1", field), abp_entry("x1 + x2*x3", field), None],
            [abp_entry("x2*x2*x1 + 1", field), abp_entry("x2", field), None],
            [None, None, realize_inverse(abp_entry("x1*x2", field))]]
    M = make_skew_matrix(grid, field)
    rng = random.Random(5)
    assert sum(assert_rank_identity(M, rng, d) for d in (1, 2)) == 6


@st.composite
def mixed_grids(draw):
    """A field and a square grid mixing zero entries, branching-program
    entries (designated at (1, N - w + 1)) and inverse gadgets around them
    (designated at (s + 1, s + 1)), of differing sizes."""
    field = draw(st.sampled_from((F, prime_field(101), QQ)))
    m = draw(st.integers(1, 3))

    def entry():
        kind = draw(st.sampled_from(("zero", "abp", "inverse")))
        if kind == "zero":
            return None
        e = abp_entry(draw(st.sampled_from(POLYNOMIALS)), field)
        return realize_inverse(e) if kind == "inverse" else e
    return field, [[entry() for _ in range(m)] for _ in range(m)]


@settings(max_examples=40, deadline=None)
@given(mixed_grids(), st.integers(1, 2), st.integers(0, 2 ** 16))
def test_reduction_rank_is_entry_sizes_plus_grid_rank(grid, d, seed):
    field, entries = grid
    assert_rank_identity(make_skew_matrix(entries, field), random.Random(seed), d)


# -- ncrank_pencil -------------------------------------------------------------------

def test_ncrank_constant_identity():
    L = pencil_from_rows(F, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    res = ncrank_pencil(L, RankParams(d_schedule=(1, 2), trials=4, seed=0))
    assert res.r == 2 and res.certificate == 2 * res.d


def test_ncrank_single_variable():
    L = pencil_from_rows(F, [[[0]], [[1]]])
    res = ncrank_pencil(L, RankParams(d_schedule=(1, 2), trials=4, seed=0))
    assert res.r == 1
    assert not res.witness.mats[0].is_zero()


def test_ncrank_higman_linearization():
    rows0 = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    rowsx = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    rowsy = [[0, 0, 0], [1, 0, 0], [0, -1, 0]]
    rowsz = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    L = pencil_from_rows(F, [rows0, rowsx, rowsy, rowsz])
    res = ncrank_pencil(L, RankParams(d_schedule=(1, 2, 3), trials=8, seed=2))
    assert res.r == 3
    # accepted ratios are weakly increasing and divisible by construction
    accepted = [acc for _, _, acc in res.per_dim if acc is not None]
    assert accepted == sorted(accepted)


def test_ncrank_skew_symmetric_pencil():
    # [[0, x], [-x, 0]] has full rank 2 already at scalars
    L = pencil_from_rows(F, [[[0, 0], [0, 0]], [[0, 1], [-1, 0]]])
    res = ncrank_pencil(L, RankParams(d_schedule=(1, 2), trials=4, seed=3))
    assert res.r == 2


def test_ncrank_witness_certificate(rng):
    for seed in range(5):
        L = _random_pencil(rng, rng.randrange(2, 5), 2)
        res = ncrank_pencil(L, RankParams(d_schedule=(1, 2, 3), trials=8,
                                          seed=seed))
        assert _rank_generic(eval_pencil(L, res.witness)) == res.certificate
        assert res.certificate == res.r * res.d


def _random_pencil(rng, size, nvars, density=0.5):
    rows = []
    for _ in range(nvars + 1):
        rows.append([[rng.randrange(F.p) if rng.random() < density else 0
                      for _ in range(size)] for _ in range(size)])
    return pencil_from_rows(F, rows)


# -- ncrank_skew ----------------------------------------------------------------------

def test_ncrank_identity_skew():
    one = entry_of("1")
    M = make_skew_matrix([[one, None], [None, one]], F)
    res = ncrank_skew(M, RankParams(trials=6, seed=0))
    assert res.r == 2


def test_ncrank_rank_one_grid():
    x = entry_of("x1")
    M = make_skew_matrix([[x, x], [x, x]], F)
    res = ncrank_skew(M, RankParams(trials=8, seed=1))
    assert res.r == 1


def test_ncrank_higman_is_two(rng):
    M = higman_skew()
    res = ncrank_skew(M, RankParams(d_schedule=(1, 2), trials=8, seed=2))
    assert res.r == 2
    assert rank_of(assemble_at(M, res.witness)) == res.r * res.d


def test_ncrank_with_inverse_entries(rng):
    M = make_skew_matrix([[realize_inverse(entry_of("x1")), entry_of("x2")],
                          [entry_of("1"), realize_inverse(entry_of("x1*x2"))]],
                         F)
    res = ncrank_skew(M, RankParams(trials=8, seed=3))
    assert res.r == 2
    assert rank_of(assemble_at(M, res.witness)) == res.certificate


def test_ncrank_skew_scales_every_record_to_the_grid():
    # over F_7 the one trial at d = 2 reaches no multiple of 2; that record
    # is still a rank of the 4 x 4 grid, not of the reduction pencil
    path = os.path.join(os.path.dirname(__file__), "..", "data", "higman.skm")
    M = read_skew_file(path, PrimeField(7))
    res = ncrank_skew(M, RankParams(d_schedule=(2, 3), trials=1, seed=2))
    assert res.per_dim == ((2, 3, None), (3, 6, 2))
    assert all(mx <= M.m * d for d, mx, _ in res.per_dim)


# -- schur_step ------------------------------------------------------------------------

def test_schur_block_diagonal(rng):
    a = DenseMatrix.random(F, 2, 2, rng)
    while rank_of(a) < 2:
        a = DenseMatrix.random(F, 2, 2, rng)
    d = DenseMatrix.random(F, 3, 3, rng)
    P = DenseMatrix.zeros(F, 5, 5)
    for i in range(2):
        for j in range(2):
            P.data[i * 5 + j] = a.at(i, j)
    for i in range(3):
        for j in range(3):
            P.data[(2 + i) * 5 + 2 + j] = d.at(i, j)
    comp, holds = schur_step(P, 2)
    assert comp == d and holds


def test_schur_higman_complement(rng):
    # [[1, x], [y, z + xy]] at random 2x2: complement is z + xy - yx
    for _ in range(5):
        x, y, z = (DenseMatrix.random(F, 2, 2, rng) for _ in range(3))
        eye = DenseMatrix.identity(F, 2)
        P = DenseMatrix.zeros(F, 4, 4)
        blocks = [[eye, x], [y, z.add(x.matmul(y))]]
        for bi in range(2):
            for bj in range(2):
                for i in range(2):
                    for j in range(2):
                        P.data[(bi * 2 + i) * 4 + bj * 2 + j] = \
                            blocks[bi][bj].at(i, j)
        comp, holds = schur_step(P, 2)
        assert holds
        assert comp == z.add(x.matmul(y)).sub(y.matmul(x))


def test_schur_random_identity(rng):
    done = 0
    while done < 30:
        n = rng.randrange(3, 7)
        r = rng.randrange(1, n)
        P = DenseMatrix.random(F, n, n, rng)
        try:
            comp, holds = schur_step(P, r)
        except Singular:
            continue
        assert holds
        done += 1


def test_schur_singular_block():
    P = DenseMatrix.from_rows(F, [[0, 1], [1, 0]])
    with pytest.raises(Singular):
        schur_step(P, 1)


# -- regularity / monotonicity ------------------------------------------------------------

def test_regularity_and_monotonicity(rng):
    total_anomalies = 0
    total_trials = 0
    for seed in range(10):
        L = _random_pencil(rng, rng.randrange(2, 7), 2)
        params = RankParams(d_schedule=tuple(range(1, 7)), trials=16, seed=seed)
        res = ncrank_pencil(L, params)
        total_anomalies += res.anomalies
        total_trials += 16 * 6
        accepted = [acc for _, _, acc in res.per_dim if acc is not None]
        assert accepted == sorted(accepted)
        for d, mx, acc in res.per_dim:
            if acc is not None:
                assert mx % d == 0
    assert total_anomalies <= total_trials * 0.01


# -- two-route agreement -----------------------------------------------------------------

def test_reduction_route_equals_direct_blowup(rng):
    for seed in range(6):
        m = rng.randrange(1, 4)
        M = random_skew(rng, m)
        schedule = tuple(range(1, m + 3))
        res = ncrank_skew(M, RankParams(d_schedule=schedule, trials=10,
                                        seed=seed))
        # independent route: blow up the assembled entry values directly
        direct_best = 0
        rng2 = random.Random(seed + 999)
        for d in schedule:
            mx = 0
            for _ in range(10):
                t = sample_tuple(F, max(M.nvars, 1), d, rng2)
                try:
                    mx = max(mx, rank_of(assemble_at(M, t)))
                except Singular:
                    continue
            if mx % d == 0:
                direct_best = max(direct_best, mx // d)
        assert direct_best == res.r


# -- skew files -------------------------------------------------------------------------

def test_skew_file_parses_and_ranks(tmp_path):
    text = "m 2\nexpr 1\nexpr x1\nexpr x2\nexpr x3 + x1*x2\n"
    M = parse_skew_file(text, F)
    res = ncrank_skew(M, RankParams(d_schedule=(1, 2), trials=8, seed=0))
    assert res.r == 2


def test_skew_file_zero_literal_and_pencil_refs(tmp_path):
    from ncrat.pencil import write_pencil
    e = entry_of("x1")
    write_pencil(e.pencil, str(tmp_path / "e.lp"), realize=(e.row, e.col))
    text = "m 2\nexpr 1\nexpr 0\npencil e.lp\nexpr x2\n"
    (tmp_path / "mat.skm").write_text(text)
    M = read_skew_file(str(tmp_path / "mat.skm"), F)
    assert M.m == 2
    res = ncrank_skew(M, RankParams(trials=8, seed=5))
    assert res.r == 2


def test_skew_file_bad_count():
    with pytest.raises(ValueError):
        parse_skew_file("m 2\nexpr x1\n", F)


@pytest.mark.parametrize("text,where", [
    ("", "line 1"),
    ("# only a comment\n\n", "line 3"),                 # end of file
    ("expr 1\n", "line 1"),                              # missing header
    ("m\n", "line 1"),
    ("m two\nexpr 1\n", "line 1"),                       # non-integer m
    ("m 0\n", "line 1"),
    ("m -1\n", "line 1"),
    ("m 1 1\nexpr 1\n", "line 1"),
    ("m 2\nexpr 1\nexpr x1\n", "line 4"),               # too few entries
    ("m 1\nexpr 1\n\nexpr 2\n", "line 4"),               # too many entries
    ("m 1\nformula x1\n", "line 2"),                     # unknown kind
    ("m 1\npencil missing.lp\n", "line 2"),              # unreadable path
    ("m 1\npencil bad.lp\n", "line 2"),                  # malformed pencil file
    ("m 1\npencil bare.lp\n", "line 2"),                 # no realize trailer
    ("m 1\npencil f7.lp\n", "line 2"),                   # over another field
    ("# grid\nm 2\nexpr 1\n\nexpr x1 +\nexpr 0\nexpr 1\n", "line 5"),  # parse error
    ("m 2\nexpr 1\nexpr 0\n# singular\nexpr inv(x1 - x1)\nexpr x1\n", "line 5"),
])
def test_skew_file_errors_name_the_line(tmp_path, text, where):
    from ncrat.pencil import write_pencil
    (tmp_path / "bad.lp").write_text("field prime 7\nsize 2\n")
    write_pencil(entry_of("x1").pencil, str(tmp_path / "bare.lp"))
    (tmp_path / "f7.lp").write_text("field prime 7\nsize 1\nnvars 0\n"
                                    "coeff 0\n1 1 1\nend\nrealize 1 1\n")
    with pytest.raises(ValueError, match=f"^{where}: "):
        parse_skew_file(text, F, base_dir=str(tmp_path))


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -3},
                                    {"d_schedule": (1, 0, 2)}])
def test_rank_params_reject_non_positive_counts(kwargs):
    with pytest.raises(ValueError):
        RankParams(**kwargs)
