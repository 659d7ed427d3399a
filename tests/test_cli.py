import hashlib
import io
import os
from contextlib import redirect_stdout

import pytest

from ncrat.circuit import parse_expr
from ncrat.cli import main

HUA = "inv(x1 + x1*inv(x2)*x1) + inv(x1+x2) - inv(x1)"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def test_rit_zero_verdict():
    status, out = run(["rit", HUA])
    assert status == 0
    assert "verdict ZERO" in out
    assert "error_bound_per_trial" in out
    assert "seed 1" in out


def test_rit_zero_with_witness_request_exits_one():
    status, out = run(["rit", HUA, "--witness-out", "/tmp/ncrat_w0.mt"])
    assert status == 1


def test_rit_nonzero_writes_round_tripping_witness(tmp_path):
    wfile = str(tmp_path / "w.mt")
    status, out = run(["rit", "inv(x1) + inv(x2)", "--witness-out", wfile])
    assert status == 0
    assert "verdict NONZERO" in out
    assert "witness_verified True" in out
    from ncrat.field import read_tuple
    t = read_tuple(wfile)
    assert t.n == 2


def test_reports_are_deterministic():
    s1, out1 = run(["rit", "x1*x2 - x2*x1", "--seed", "5"])
    s2, out2 = run(["rit", "x1*x2 - x2*x1", "--seed", "5"])
    assert (s1, out1) == (s2, out2)


def test_compile_writes_pencil(tmp_path):
    pfile = str(tmp_path / "p.lp")
    status, out = run(["compile", "x1*inv(x2)*x1", "--out", pfile])
    assert status == 0 and "size_bound_16s2 True" in out
    from ncrat.pencil import read_pencil
    L, realize = read_pencil(pfile)
    assert realize is not None


def test_compile_json_block():
    status, out = run(["compile", "x1", "--json"])
    assert status == 0
    import json
    last = out.strip().splitlines()[-1]
    payload = json.loads(last)
    assert payload["command"] == "compile"


def test_ncrank_higman(tmp_path):
    skm = tmp_path / "higman.skm"
    skm.write_text("m 2\nexpr 1\nexpr x1\nexpr x2\nexpr x3 + x1*x2\n")
    wfile = str(tmp_path / "w.mt")
    status, out = run(["ncrank", "--file", str(skm), "--dims", "1,2",
                       "--witness-out", wfile])
    assert status == 0
    assert "rank 2" in out
    assert "witness_verified True" in out


def test_eval_defined_and_undefined(tmp_path):
    from ncrat.field import prime_field, sample_tuple, write_tuple
    t = sample_tuple(prime_field(), 2, 2, 3)
    tf = str(tmp_path / "t.mt")
    write_tuple(t, tf)
    status, out = run(["eval", "x1 + x2", "--point", tf])
    assert status == 0 and "defined True" in out
    from ncrat.field import MatrixTuple, DenseMatrix, prime_field as pf
    z = MatrixTuple(pf(), 1, (DenseMatrix.zeros(pf(), 1, 1),))
    zf = str(tmp_path / "z.mt")
    write_tuple(z, zf)
    status, out = run(["eval", "inv(x1)", "--point", zf])
    assert status == 1 and "defined False" in out


def test_series_zero_subcommand(tmp_path):
    from ncrat.field import prime_field
    from ncrat.pencil import pencil_from_rows, write_pencil
    F = prime_field()
    M = pencil_from_rows(F, [[[0]], [[1]]])
    pf = str(tmp_path / "geo.lp")
    write_pencil(M, pf, realize=(1, 1))
    status, out = run(["series-zero", "--file", pf])
    assert status == 0 and "verdict NONZERO" in out
    wfile = str(tmp_path / "sw.mt")
    status, out = run(["series-zero", "--file", pf, "--witness-out", wfile])
    assert status == 0 and "witness_verified True" in out


def test_bootstrap_subcommand():
    status, out = run(["bootstrap", "x1*x2 - x2*x1", "--dims", "1,2",
                       "--trials", "12"])
    assert status == 0
    assert "smallest_invertible 2" in out


def test_hitgen_subcommand(tmp_path):
    prefix = str(tmp_path / "hs_")
    status, out = run(["hitgen", "--nvars", "2", "--size", "4", "--height", "0",
                       "--dim", "1", "--kappa", "3", "--out-prefix", prefix])
    assert status == 0 and "tuples 3" in out
    from ncrat.field import read_tuple
    t = read_tuple(prefix + "0000.mt")
    assert t.n == 2 and t.d == 1


def test_rit_corpus_batch(tmp_path):
    cf = tmp_path / "corpus.txt"
    cf.write_text("# two members\ncomm: x1*x2 - x2*x1\nident: x1 - x1\n")
    status, out = run(["rit", "--corpus", str(cf)])
    assert status == 0
    assert "verdict_comm NONZERO" in out
    assert "verdict_ident ZERO" in out


@pytest.mark.parametrize("argv", [
    ["rit"],
    ["hitgen", "--nvars", "1", "--size", "2", "--height", "0", "--dim", "1"],
])
def test_malformed_corpus_line_exits_two(tmp_path, capsys, argv):
    cf = tmp_path / "corpus.txt"
    cf.write_text("a: x1\nb: x1 + (\n")
    status, _ = run([*argv, "--corpus", str(cf)])
    err = capsys.readouterr().err
    assert status == 2
    assert err == "error: line 2: expected an atom, found '' (at position 6)\n"


def test_hitgen_corpus_verification(tmp_path):
    cf = tmp_path / "corpus.txt"
    cf.write_text("inv-sum: inv(x1) + inv(x2)\n")
    status, out = run(["hitgen", "--nvars", "2", "--size", "6", "--height", "1",
                       "--dim", "2", "--kappa", "8", "--corpus", str(cf)])
    assert status == 0
    assert "hit_rate 1/1" in out


def test_input_error_exit_code():
    status, _ = run(["rit", "x1 +"])
    assert status == 2
    status, _ = run(["ncrank", "--file", "/nonexistent/file.skm"])
    assert status == 2


# x1 doubled eleven times as a DAG: its tree has 4095 nodes, above the
# expansion cap of 8 times its 12 nodes
DOUBLING = "0 var 1\n" + "".join(f"{i} add {i - 1} {i - 1}\n" for i in range(1, 12)) \
    + "output 11\n"


@pytest.mark.parametrize("command", ["rit", "compile", "bootstrap"])
def test_blowup_exits_two(tmp_path, capsys, command):
    path = tmp_path / "doubling.txt"
    path.write_text(DOUBLING)
    status, _ = run([command, "--file", str(path)])
    err = capsys.readouterr().err
    assert status == 2 and err.count("\n") == 1
    assert err.startswith("error: tree expansion exceeded 96 nodes; ")


def test_unsettled_ncrank_exits_two(capsys):
    # over F_3 one trial per dimension leaves the rank at d = 4 unsettled
    status, _ = run(["ncrank", "--file", HIGMAN, "--prime", "3", "--trials", "1",
                     "--seed", "6"])
    err = capsys.readouterr().err
    assert status == 2 and err.count("\n") == 1
    assert err.startswith("error: rank not settled: ") and "--trials" in err


BAD_PENCIL_FILES = {
    "empty": "",
    "truncated": "field prime 7\nsize 2\n",
    "column-out-of-range": "field prime 7\nsize 2\nnvars 1\ncoeff 1\n1 3 5\nend\nrealize 1 1\n",
    "row-below-one": "field prime 7\nsize 2\nnvars 1\ncoeff 1\n0 1 4\nend\nrealize 1 1\n",
    "unterminated-block": "field prime 7\nsize 2\nnvars 1\ncoeff 1\n1 2 1\n",
    # numbers are [+-]digits or [+-]digits/digits; an exponent is not read
    "exponent": "field rational\nsize 1\nnvars 0\ncoeff 0\n1 1 1e999999999\nend\n",
    "decimal": "field rational\nsize 1\nnvars 0\ncoeff 0\n1 1 1.5\nend\n",
    "nvars-above-bound": "field prime 7\nsize 1\nnvars 99999999999999999\n"
                         "coeff 0\n1 1 1\nend\nrealize 1 1\n",
    "size-above-bound": "field prime 7\nsize 999999999999\nnvars 1\n"
                        "coeff 1\n1 1 1\nend\nrealize 1 1\n",
}

BAD_CIRCUIT_FILES = {
    "undefined-child": "0 add 1 2\noutput 0\n",
    "short-line": "0 var\noutput 0\n",
    "undefined-output": "0 var 1\noutput 7\n",
    "exponent-const": "0 const 1e999999999\noutput 0\n",
    "decimal-const": "0 const 1.5\noutput 0\n",
    "variable-above-bound": "0 var 99999999999999999999\noutput 0\n",
    "duplicate-node": "0 var 1\n0 var 2\noutput 0\n",
    "second-output": "0 var 1\n1 var 2\noutput 1\noutput 0\n",
}


@pytest.mark.parametrize("name", sorted(BAD_PENCIL_FILES))
def test_malformed_pencil_file_exits_two(tmp_path, capsys, name):
    path = tmp_path / "bad.lp"
    path.write_text(BAD_PENCIL_FILES[name])
    status, _ = run(["series-zero", "--file", str(path)])
    err = capsys.readouterr().err
    assert status == 2 and err.startswith("error: line ") and err.count("\n") == 1


def test_malformed_skew_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.skm"
    path.write_text("m 0\n")
    status, _ = run(["ncrank", "--file", str(path)])
    err = capsys.readouterr().err
    assert status == 2 and err == "error: line 1: m 0 is out of range\n"


def test_singular_skew_entry_exits_two(tmp_path, capsys):
    path = tmp_path / "singular.skm"
    path.write_text("m 1\nexpr inv(x1 - x1)\n")
    status, _ = run(["ncrank", "--file", str(path)])
    err = capsys.readouterr().err
    assert status == 2
    assert err == "error: line 2: entry pencil singular at all probed dimensions\n"


@pytest.mark.parametrize("flags, status", [([], 2), (["--prime", "101"], 0)])
def test_skew_pencil_entry_must_be_over_the_working_field(tmp_path, capsys, flags, status):
    # (x1 - 1)^{-1} over F_101; over any other field it would be a wrong entry
    (tmp_path / "xm1.lp").write_text("field prime 101\nsize 1\nnvars 1\n"
                                     "coeff 0\n1 1 100\nend\ncoeff 1\n1 1 1\nend\n"
                                     "realize 1 1\n")
    path = tmp_path / "f.skm"
    path.write_text("m 2\npencil xm1.lp\nexpr inv(x1 - 1)\nexpr 1\nexpr 1\n")
    got, out = run(["ncrank", "--file", str(path)] + flags)
    err = capsys.readouterr().err
    assert got == status
    if status:
        assert err == ("error: line 2: pencil file 'xm1.lp' is over prime 101, "
                       "but the working field is prime 2305843009213693951\n")
    else:
        assert "\nrank 1\n" in out and "\nprime 101\n" in out


@pytest.mark.parametrize("name", sorted(BAD_CIRCUIT_FILES))
def test_malformed_circuit_file_exits_two(tmp_path, capsys, name):
    path = tmp_path / "bad.circ"
    path.write_text(BAD_CIRCUIT_FILES[name])
    status, _ = run(["compile", "--file", str(path)])
    err = capsys.readouterr().err
    assert status == 2 and err.startswith("error: line ") and err.count("\n") == 1


@pytest.mark.parametrize("expr, pos", [
    ("x99999999999999999999", 0), ("x1 + x65537", 5), ("y32768_0*x1", 0),
    ("x1*y99999999999999999999999_1", 3), ("x" + "9" * 5000, 0),
])
def test_variable_index_above_the_bound_exits_two(capsys, expr, pos):
    # every trial draws one matrix per variable up to the largest index
    status, out = run(["rit", expr])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == \
        f"error: variable index above 65536 (at position {pos})\n"


def test_variable_index_at_the_bound_parses():
    assert parse_expr("x65536").nvars == parse_expr("y32767_1").nvars == 65536
    assert parse_expr("y00000000000000000000001_0").nvars == 3


def test_skew_entry_variable_above_the_bound_exits_two(tmp_path, capsys):
    path = tmp_path / "big.skm"
    path.write_text("m 1\nexpr x99999999999999999999\n")
    status, _ = run(["ncrank", "--file", str(path)])
    assert status == 2
    assert capsys.readouterr().err == \
        "error: line 2: variable index above 65536 (at position 0)\n"


@pytest.mark.parametrize("argv, where", [
    (["rit", "x1 + 1/7"], ""), (["compile", "x1 + 1/7"], ""),
    (["bootstrap", "x1 + 1/7"], ""), (["eval", "x1 + 1/7", "--point", "p.mt"], ""),
    (["hitgen", "--nvars", "1", "--size", "2", "--height", "0", "--dim", "1",
      "--corpus", "c.txt"], ""),
    (["ncrank", "--file", "c.skm"], "line 3: "),
])
def test_constant_with_denominator_divisible_by_p_exits_two(tmp_path, monkeypatch,
                                                            capsys, argv, where):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.mt").write_text("field prime 7\nnvars 1\ndim 1\n3\n")
    (tmp_path / "c.txt").write_text("ok: x1\nbad: x1 + 1/7\n")
    (tmp_path / "c.skm").write_text("m 1\n# one entry\nexpr x1 + 1/7\n")
    status, out = run(argv + ["--prime", "7"])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == \
        f"error: {where}constant 1/7 is undefined in F_7: 7 divides its denominator\n"


def test_rational_zero_bound_is_over_the_sampled_set():
    # RationalField.rand draws from the 2^17 integers in [-2^16, 2^16)
    status, out = run(["rit", "--rational", "x1 - x1", "--trials", "2"])
    assert status == 0 and "verdict ZERO" in out
    assert "error_bound_per_trial 9/131072\n" in out   # pencil size 3, max_dim 3


BAD_POINT_FILES = {
    # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
    "composite-prime": "field prime 318665857834031151167461\nnvars 1\ndim 1\n3\n",
    "short-field-line": "field prime\n",
    "missing-dim": "field prime 7\nnvars 1\n",
    "missing-row": "field prime 7\nnvars 1\ndim 2\n1 2\n",
    "exponent-entry": "field rational\nnvars 1\ndim 1\n1e999999999\n",
    "decimal-entry": "field rational\nnvars 1\ndim 1\n1.5\n",
    # no matrices to read, but eval would build a d x d identity
    "huge-dim": "field prime 2305843009213693951\nnvars 0\ndim 1000000000000\n",
}


@pytest.mark.parametrize("name", sorted(BAD_POINT_FILES))
def test_malformed_point_file_exits_two(tmp_path, capsys, name):
    path = tmp_path / "bad.mt"
    path.write_text(BAD_POINT_FILES[name])
    status, _ = run(["eval", "x1", "--point", str(path)])
    err = capsys.readouterr().err
    assert status == 2 and err.startswith("error: line ") and err.count("\n") == 1


@pytest.mark.parametrize("prime", ["318665857834031151167461",
                                   "3317044064679887385961981"])
def test_prime_that_miller_rabin_cannot_decide_exits_two(capsys, prime):
    # a composite that passes the bases 2..37, and the first number from
    # which the bases 2..41 no longer decide primality
    status, out = run(["rit", "x1*x2 - x2*x1", "--prime", prime])
    err = capsys.readouterr().err
    assert status == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags, status, field", [
    ([], 2, None), (["--rational"], 2, None), (["--prime", "7"], 0, "prime 7")])
def test_eval_point_field_must_match_working_field(tmp_path, capsys, flags, status, field):
    path = tmp_path / "f7.mt"
    path.write_text("field prime 7\nnvars 1\ndim 1\n3\n")
    got, out = run(["eval", "inv(x1)", "--point", str(path)] + flags)
    err = capsys.readouterr().err
    assert got == status
    if field is None:
        assert not out and err.startswith("error: point file is over prime 7")
        assert err.count("\n") == 1
    else:
        assert f"\n{field}\n" in out and out.endswith("\n5\n")


def test_eval_point_with_fewer_matrices_than_variables_exits_two(tmp_path, capsys):
    path = tmp_path / "f7.mt"
    path.write_text("field prime 7\nnvars 1\ndim 1\n3\n")
    status, out = run(["eval", "x1*x2", "--prime", "7", "--point", str(path)])
    assert status == 2 and not out
    assert capsys.readouterr().err == \
        "error: tuple has fewer matrices than the circuit has variables\n"


HIGMAN = os.path.join(os.path.dirname(__file__), "..", "data", "higman.skm")

NON_POSITIVE_COUNTS = {
    "ncrank-trials-0": (["ncrank", "--file", HIGMAN, "--trials", "0"],
                        "error: trials must be at least 1, got 0\n"),
    "ncrank-dims-empty-entry": (["ncrank", "--file", HIGMAN, "--dims", "1,,2"],
                                "error: --dims: '' is not a positive integer\n"),
    "ncrank-dims-zero": (["ncrank", "--file", HIGMAN, "--dims", "0,1"],
                         "error: --dims: '0' is not a positive integer\n"),
    "ncrank-dims-empty": (["ncrank", "--file", HIGMAN, "--dims", ""],
                          "error: --dims: '' is not a positive integer\n"),
    "bootstrap-dims-negative": (["bootstrap", "x1", "--dims", "1,-2"],
                                "error: --dims: '-2' is not a positive integer\n"),
    "rit-trials-negative": (["rit", "x1", "--trials", "-2"],
                            "error: trials must be at least 1, got -2\n"),
    "rit-trials-0": (["rit", "--trials", "0", "x1"],
                     "error: trials must be at least 1, got 0\n"),
    "rit-max-dim-negative": (["rit", "x1", "--max-dim", "-1"],
                             "error: max_dim must be at least 1, got -1\n"),
    "rit-max-dim-0": (["rit", "x1", "--max-dim", "0"],
                      "error: max_dim must be at least 1, got 0\n"),
    "bootstrap-trials-0": (["bootstrap", "x1", "--trials", "0"],
                           "error: trials must be at least 1, got 0\n"),
    "bootstrap-trials-negative": (["bootstrap", "x1", "--trials", "-1"],
                                  "error: trials must be at least 1, got -1\n"),
    "hitgen-size-0": (["hitgen", "--nvars", "1", "--size", "0", "--height", "0",
                       "--dim", "1"], "error: size must be at least 1, got 0\n"),
    "hitgen-dim-0": (["hitgen", "--nvars", "1", "--size", "2", "--height", "0",
                      "--dim", "0"], "error: dim must be at least 1, got 0\n"),
    "hitgen-kappa-0": (["hitgen", "--nvars", "1", "--size", "2", "--height", "0",
                        "--dim", "1", "--kappa", "0"],
                       "error: kappa must be at least 1, got 0\n"),
    "hitgen-height-negative": (["hitgen", "--nvars", "1", "--size", "2", "--height",
                                "-1", "--dim", "1"],
                               "error: height must be at least 0, got -1\n"),
    # every point builds one matrix per variable
    "hitgen-nvars-above-bound": (["hitgen", "--nvars", "10000000", "--size", "2",
                                  "--height", "0", "--dim", "1"],
                                 "error: nvars must be at most 65536, got 10000000\n"),
}


def test_series_zero_with_no_trials_exits_two(tmp_path, capsys):
    path = tmp_path / "x.pen"
    path.write_text("field prime 7\nsize 1\nnvars 1\ncoeff 0\nend\n"
                    "coeff 1\n1 1 1\nend\nrealize 1 1\n")
    assert run(["series-zero", "--file", str(path), "--trials", "1"])[0] == 0
    status, out = run(["series-zero", "--file", str(path), "--trials", "0"])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: trials must be at least 1, got 0\n"


@pytest.mark.parametrize("name", sorted(NON_POSITIVE_COUNTS))
def test_non_positive_counts_exit_two(capsys, name):
    argv, message = NON_POSITIVE_COUNTS[name]
    status, out = run(argv)
    assert status == 2 and out == ""
    assert capsys.readouterr().err == message


# SHA-256 of (report, report with --witness-out, witness file bytes) from
# `ncrank --file data/higman.skm --json`, the witness path read as W.  A
# certified ceiling decides later dimensions without sampling them, which
# must leave the rank, witness and certificate, and so these bytes, as the
# trials gave them, in small fields too.
NCRANK_CLI_GOLDEN = {
    ("--seed", "2"):
        "e5dd22aca7dac8bbbf0497b573c90e23076a11cc8a4baf4966f2621df2a2bdc0",
    ("--seed", "6"):
        "2a38abb452b75974c214458d481c80eb1cb55b6f29cbc4b749c17105a2e5e771",
    ("--seed", "2", "--prime", "2147483647"):
        "f11f67df16e396882ee1a704b71cdccc70f04177f635607c737d3bfe16e51d9e",
    ("--seed", "6", "--prime", "2147483647"):
        "d07731c1558a5477f35e16bf7b08a960615937c8a068b4e0cfe762954874ee8f",
    ("--seed", "2", "--prime", "101"):
        "e29ea26a0331b6496e00908b156b4ecc41af38806441ed0dcf986718af963457",
    ("--seed", "6", "--prime", "101"):
        "9b4761fc3eb612fc2d1902116944ee344302f88c419c91e065d1b7d257fa82c9",
    ("--seed", "2", "--prime", "7", "--trials", "1"):
        "e356f98230f5d370f93d233848de2857d5acbb977af33b88350258e0824c1923",
    ("--seed", "6", "--prime", "7", "--trials", "1"):
        "a16b604558c1798866def3d31ef5aedba1f316bc262df0385e42fdbb37c799b7",
    ("--seed", "2", "--rational"):
        "b9c0753a374a0c42207ad9fa4c50696754ad9219af3d68462b347deb524a7f6c",
    ("--seed", "6", "--rational"):
        "b918aaa604f1c2830653fec7bbb25e40f7a944bf140b0527c586424e0623235c",
}


def _ncrank_digest(flags, tmp_path):
    argv = ["ncrank", "--file", HIGMAN, "--json", *flags]
    status, out = run(argv)
    wfile = str(tmp_path / "w.mt")
    status_w, out_w = run(argv + ["--witness-out", wfile])
    assert status == status_w == 0 and "witness_verified True" in out_w
    with open(wfile, "rb") as fh:
        witness = fh.read()
    text = repr((out, out_w.replace(wfile, "W"), witness))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("flags", sorted(NCRANK_CLI_GOLDEN), ids=" ".join)
def test_ncrank_report_and_witness_are_unchanged(tmp_path, flags):
    assert _ncrank_digest(flags, tmp_path) == NCRANK_CLI_GOLDEN[flags]


# SHA-256 of the reports and written files of series-zero, bootstrap and
# hitgen over M61, F_101 and Q, written paths read as W and P: the
# commands that evaluate a pencil densely (the series) and transport
# reduced tuples back (hitgen).  hitgen only echoes its seed, so its two
# cases differ in shape instead.
CLI_FIELDS = {"M61": ("prime 2305843009213693951", ()),
              "F101": ("prime 101", ("--prime", "101")),
              "Q": ("rational", ("--rational",))}
SERIES_PENCIL = ("field {}\nsize 4\nnvars 2\ncoeff 0\nend\n"
                 "coeff 1\n1 2 1\n2 3 2\n3 4 -1\nend\n"
                 "coeff 2\n1 1 3\n2 4 1\n4 1 1\nend\nrealize 1 4\n")
HITGEN_SHAPES = {
    "h1d2": ("--nvars", "2", "--size", "4", "--height", "1", "--dim", "2",
             "--kappa", "6"),
    "h0d3": ("--nvars", "3", "--size", "3", "--height", "0", "--dim", "3",
             "--kappa", "4"),
}
SERIES_CLI_GOLDEN = {
    ("M61", "2"):
        "e7acbd6f410e804befb5f9b804936a9a7595c6a3f1a91af60f1f53b5f180a38a",
    ("M61", "6"):
        "a73a285b75d121466b5b2c1217515771d7fb1653fe27b2961a278c13dc6206ad",
    ("F101", "2"):
        "146beeebef0ba1de41cd58c1cff37fc163cfa03b05d47d434596e553c653cd56",
    ("F101", "6"):
        "b5ab32735c83b2cf18e3498996e0ae7708c3027e8c9bff89e5c0a6d60bc976f5",
    ("Q", "2"):
        "ad0deac9a3384e9597c080660d7c4c14ed93dccaa16a97bc9746a73c7cc127f1",
    ("Q", "6"):
        "a2c2c7f113441d99bf1fae16c50f4be1e7aed9a016ea0f8855d81afaeebc6dc4",
}
BOOTSTRAP_CLI_GOLDEN = {
    ("M61", "2"):
        "16cf36bcc47f377c172516bc556161bcf5f802589a972395474a8eb339644695",
    ("M61", "6"):
        "4d818d2f340e15ff7cf5f155fb03f0a19bc4424427466036fe65f19af3b3c35d",
    ("F101", "2"):
        "7b24ee90bba1ef2b9b900e102dcfdb67546ca3e96f26c1ecd8a9c06d606df10f",
    ("F101", "6"):
        "7ea6120968feebe2178175be45a249a0e7ec5d643a879621be8a3546e8a0b8c7",
    ("Q", "2"):
        "9022dcb0c49862b4bfea15e932e5a006f23b02d8b0e2da79438d73f8ed8af94e",
    ("Q", "6"):
        "fd9efcb7bb170126d282d46d0c1cb20c56219affa0a336bfe4dffbe18c98dae0",
}
HITGEN_CLI_GOLDEN = {
    ("M61", "h1d2"):
        "8fc0d1723823e02faa4416ac46b8df0386c6fea601683e775876bf4f28960a03",
    ("M61", "h0d3"):
        "d0278672a372325e4d02ed98a313db427726dafe6573a942854d920898dfa765",
    ("F101", "h1d2"):
        "2e1b475f4984cf19f3ede4e249155f401a2ec84ec3e0296239ff2b9570b69bbd",
    ("F101", "h0d3"):
        "95e5e8b293d21ebf08cc55cc753a6232285b11d00555f4df7603a8fa84760fe6",
    ("Q", "h1d2"):
        "43ce52440486b1df9c2fe180361a602c1060be11e89f7f18a8adda0ae61edfa1",
    ("Q", "h0d3"):
        "58928e7fee59508bf099dc8d87c65df26e0eba018ecb8a4ec401b080869886cb",
}


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SERIES_CLI_GOLDEN), ids=" ".join)
def test_series_zero_report_and_witness_are_unchanged(tmp_path, case):
    field, seed = case
    pfile = tmp_path / "s.lp"
    pfile.write_text(SERIES_PENCIL.format(CLI_FIELDS[field][0]))
    argv = ["series-zero", "--file", str(pfile), "--json", "--seed", seed]
    status, out = run(argv)
    wfile = str(tmp_path / "w.mt")
    status_w, out_w = run(argv + ["--witness-out", wfile])
    assert status == status_w == 0 and "witness_verified True" in out_w
    with open(wfile, "rb") as fh:
        witness = fh.read()
    assert _digest(out, out_w.replace(wfile, "W"), witness) == \
        SERIES_CLI_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(BOOTSTRAP_CLI_GOLDEN), ids=" ".join)
def test_bootstrap_report_is_unchanged(case):
    field, seed = case
    status, out = run(["bootstrap", "x1*x2 - x2*x1", "--dims", "1,2", "--json",
                       "--seed", seed, *CLI_FIELDS[field][1]])
    assert status == 0 and "route=series" in out
    assert _digest(out) == BOOTSTRAP_CLI_GOLDEN[case]


# SHA-256 of bootstrap's report over F_3, where the scaling scan runs out
# of field: each d = 1 row reads truncation_nonzero=True tau=None.
BOOTSTRAP_SMALL_FIELD_GOLDEN = {
    ("inv(x1) + inv(x2)", "1,2,3"):
        "95077321aac0589c1855b3f52cdb88524c1d4f3afbacb5c829f4008f7c2583d7",
    ("inv(x1+x2) - inv(x1)", "1,2"):
        "1557a8de1bf14a31c387cfdc42ca8ecefecf6a2ca80e7f51d50f2c6796cfc4e6",
}


@pytest.mark.parametrize("case", sorted(BOOTSTRAP_SMALL_FIELD_GOLDEN), ids=" ".join)
def test_bootstrap_small_field_report_is_unchanged(case):
    expr, dims = case
    status, out = run(["bootstrap", expr, "--prime", "3", "--dims", dims, "--json"])
    assert status == 0
    assert "dim_1 defined=True invertible=True route=series series_size=16 " \
        "truncation_nonzero=True tau=None" in out
    assert _digest(out) == BOOTSTRAP_SMALL_FIELD_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(HITGEN_CLI_GOLDEN), ids=" ".join)
def test_hitgen_report_and_files_are_unchanged(tmp_path, case):
    field, shape = case
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"comm: x1*x2 - x2*x1\ninv-sum: inv(x1) + inv(x2)\nhua: {HUA}\n")
    prefix = str(tmp_path / "hs_")
    status, out = run(["hitgen", *HITGEN_SHAPES[shape], "--json",
                       "--out-prefix", prefix, "--corpus", str(corpus),
                       *CLI_FIELDS[field][1]])
    assert status == 0
    files = []
    for name in sorted(os.listdir(tmp_path)):
        if name.startswith("hs_"):
            with open(tmp_path / name, "rb") as fh:
                files.append((name, fh.read()))
    out = out.replace(prefix, "P").replace(str(corpus), "C")
    assert _digest(out, files) == HITGEN_CLI_GOLDEN[case]
