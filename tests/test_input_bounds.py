"""The bounds on file headers at their edges: the largest value a bound
allows is read, the next one is refused with the documented error, and
the CLI turns that refusal into exit status 2 and one `error:` line.
Nothing of the bound's size is built: the files are headers only, and
reading one stays small.  The bounds on variable indices in expressions
and on PrimeField's modulus are tested at their edges in test_cli and
test_field.  series_is_zero's test dimension, ceil((s + 1) / 2) for a
pencil of size s, meets MAX_DIM at s = 8191: a series of that size is
tested, one of size 8192 is refused before any tuple is drawn.  So is a
blow-up dimension above MAX_DIM asked of rit, ncrank, bootstrap or
hitgen, while MAX_DIM itself gets as far as the first draw."""

import os
import tracemalloc

import pytest
from test_fuzz_readers import _exits_two_with_one_line

from ncrat import rank, rit, series
from ncrat.circuit import MAX_VARS, parse_expr
from ncrat.field import MAX_DIM, MERSENNE61, DenseMatrix, PrimeField, parse_tuple
from ncrat.pencil import MAX_PENCIL_SIZE, parse_pencil


def _small(read, text):
    """read(text), checked to allocate under 1 MB on the way."""
    tracemalloc.start()
    try:
        out = read(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    return out


@pytest.mark.parametrize("key, line, bound", [
    ("size", 2, MAX_PENCIL_SIZE), ("nvars", 3, MAX_VARS)])
def test_pencil_header_bound(tmp_path, key, line, bound):
    assert (MAX_PENCIL_SIZE, MAX_VARS) == (1048576, 65536)

    def text(value):
        header = {"size": 1, "nvars": 0, key: value}
        return f"field prime 7\nsize {header['size']}\nnvars {header['nvars']}\n"
    L, realize = _small(parse_pencil, text(bound))
    assert (getattr(L, key), L.entries, realize) == (bound, {}, None)
    with pytest.raises(ValueError, match=f"line {line}: {key} {bound + 1} is out of range"):
        parse_pencil(text(bound + 1))
    path = tmp_path / "p.lp"
    path.write_text(text(bound + 1))
    _exits_two_with_one_line(["series-zero", "--file", str(path)])


def test_tuple_dimension_bound(tmp_path):
    header = "field prime 2305843009213693951\nnvars 0\ndim {}\n"
    t = _small(parse_tuple, header.format(MAX_DIM))
    assert (t.d, t.mats) == (MAX_DIM, ())
    with pytest.raises(ValueError, match=f"line 3: dim {MAX_DIM + 1} is out of range"):
        parse_tuple(header.format(MAX_DIM + 1))
    path = tmp_path / "t.mt"
    path.write_text(header.format(MAX_DIM + 1))
    _exits_two_with_one_line(["eval", "1", "--point", str(path)])


class _Drawn(Exception):
    """series_is_zero got past its checks to the first tuple."""


def _series(size, boundary):
    L, realize = _small(parse_pencil, f"field prime 7\nsize {size}\nnvars 1\n"
                                      f"realize 1 {size}\n")
    c = DenseMatrix.zeros(L.field, 1, size)
    b = DenseMatrix.zeros(L.field, size, 1)
    c.data[0] = b.data[-1] = boundary
    return series.RecognizableSeries(c, L, b)


def test_series_test_dimension_bound(tmp_path, monkeypatch):
    assert MAX_DIM == 4096
    # a zero boundary returns ZERO before the bound, at any size
    verdict = series.series_is_zero(_series(8192, 0))
    assert (verdict.kind, verdict.dimension) == ("zero", 4097)

    def drawn(*args):
        raise _Drawn
    monkeypatch.setattr(series, "sample_tuple", drawn)
    with pytest.raises(_Drawn):
        series.series_is_zero(_series(8191, 1))
    with pytest.raises(ValueError, match="test dimension 4097, above 4096"):
        series.series_is_zero(_series(8192, 1))
    for size in (8192, MAX_PENCIL_SIZE):
        path = tmp_path / "p.lp"
        path.write_text(f"field prime 7\nsize {size}\nnvars 1\nrealize 1 1\n")
        _exits_two_with_one_line(["series-zero", "--file", str(path)])


HIGMAN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "data", "higman.skm")


def _blow_up(command):
    """The library call behind `command` as a function of the blow-up
    dimension, over M61; ncrank's skew matrix is read (and probed) here."""
    F = PrimeField(MERSENNE61)
    if command == "rit":
        return lambda d: rit.rit_test(parse_expr("x1"), F, rit.RitParams(max_dim=d))
    if command == "ncrank":
        M = rank.read_skew_file(HIGMAN, F)
        return lambda d: rank.ncrank_skew(M, rank.RankParams(d_schedule=(d,)))
    if command == "bootstrap":
        return lambda d: rit.bootstrap_dimension(parse_expr("x1"), F, schedule=(d,))
    return lambda d: rit.hitting_set_generate(1, 1, 0, d, None, F)


@pytest.mark.parametrize("command, argv", [
    ("rit", ["rit", "x1", "--max-dim"]),
    ("ncrank", ["ncrank", "--file", HIGMAN, "--dims"]),
    ("bootstrap", ["bootstrap", "x1", "--dims"]),
    ("hitgen", ["hitgen", "--nvars", "1", "--size", "1", "--height", "0", "--dim"])])
def test_blow_up_dimension_bound(monkeypatch, command, argv):
    run = _blow_up(command)

    def drawn(*args):
        raise _Drawn
    # the first tuple (or hitgen's points) would be drawn next
    for module, name in ((rit, "sample_tuple"), (rank, "sample_tuple"),
                         (rit, "sparse_points")):
        monkeypatch.setattr(module, name, drawn)
    with pytest.raises(_Drawn):
        run(MAX_DIM)
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}, got {MAX_DIM + 1}"):
        run(MAX_DIM + 1)
    monkeypatch.undo()
    _exits_two_with_one_line(argv + [str(MAX_DIM + 1)])
