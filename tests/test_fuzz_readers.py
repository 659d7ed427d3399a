"""Fuzzing of the readers: expressions, circuit files, pencil files,
matrix-tuple files, skew-matrix files and expression corpora, each printed
from generated values, then cut, spliced and garbled; and the number
literals that every file reader reads with parse_number.  A reader refuses
what it cannot read with ParseError or ValueError, never with another
exception, and the CLI turns that refusal into exit status 2 and one
`error:` line.  The CLI runs only on refused text, since a garbled file
that still reads may ask for a large pencil or dimension."""

import io
import random
import re
import tempfile
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_circuit import trees
from test_cli import run

from ncrat.circuit import (ParseError, Undefined, dump_circuit, eval_circuit,
                           parse_circuit, parse_expr)
from ncrat.cli import _read_corpus
from ncrat.field import (MAX_DIM, QQ, PrimeField, dump_tuple, field_name,
                         parse_number, parse_tuple, prime_field, sample_tuple)
from ncrat.pencil import LinearPencil, dump_pencil, parse_pencil
from ncrat.rank import parse_skew_file

# characters and words the two grammars use, plus a few they do not
_PIECES = st.sampled_from(list("()+-*/^_ \n0123456789xy#.e@:")
                          + ["inv", "inv(", "^-1", "x0", "x65537", "output",
                             "var", "const", "add", "sub", "mul", "1/0",
                             "field", "prime", "rational", "size", "nvars", "dim",
                             "coeff", "end", "realize", "m", "expr", "pencil",
                             "1000000000000"])
_GARBAGE = _PIECES | st.characters(exclude_categories=("Cs",))


def expr_text(c) -> str:
    """A tree-shaped circuit written as a fully parenthesised expression."""
    texts: list[str] = []
    for node in c.nodes:
        kind = node[0]
        if kind == "var":
            texts.append(f"x{node[1]}")
        elif kind == "const":
            v = node[1]
            text = f"{abs(v.numerator)}" + (f"/{v.denominator}" if v.denominator > 1 else "")
            texts.append(f"(0 - {text})" if v < 0 else text)
        elif kind == "inv":
            texts.append(f"inv({texts[node[1]]})")
        else:
            op = {"add": "+", "sub": "-", "mul": "*"}[kind]
            texts.append(f"({texts[node[1]]} {op} {texts[node[2]]})")
    return texts[c.output]


@st.composite
def garbled(draw, texts):
    """A text from `texts` with one to four of its spans replaced: by
    nothing (a cut), by another span of the same text (a splice), or by a
    few pieces of the grammars or arbitrary characters."""
    s = draw(texts)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(s)))
        j = draw(st.integers(i, min(len(s), i + 12)))
        how = draw(st.sampled_from(["cut", "splice", "garble"]))
        if how == "cut":
            piece = ""
        elif how == "splice":
            k = draw(st.integers(0, len(s)))
            piece = s[k:draw(st.integers(k, len(s)))]
        else:
            piece = "".join(draw(st.lists(_GARBAGE, max_size=4)))
        s = s[:i] + piece + s[j:]
    return s


@settings(max_examples=300, deadline=None)
@given(trees())
def test_expression_text_of_a_tree_parses_to_the_same_function(c):
    t = sample_tuple(prime_field(), 6, 2, 401)
    values = []
    for circuit in (c, parse_expr(expr_text(c))):
        try:
            values.append(eval_circuit(circuit, t))
        except Undefined as exc:
            values.append(type(exc))
    assert values[0] == values[1]


@settings(max_examples=400, deadline=None)
@given(garbled(trees().map(expr_text)))
def test_garbled_expressions_raise_only_parse_errors(text):
    try:
        parse_expr(text)
    except ParseError:
        pass


@settings(max_examples=400, deadline=None)
@given(garbled(trees().map(dump_circuit)))
def test_garbled_circuit_files_raise_only_value_errors(text):
    try:
        parse_circuit(text)
    except ValueError as exc:
        assert str(exc).startswith("line ")


@settings(max_examples=100, deadline=None)
@given(garbled(trees().map(dump_circuit)))
def test_compile_refuses_garbled_circuit_files_with_one_line(text):
    try:
        parse_circuit(text)
        readable = True
    except ValueError:
        readable = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "garbled.circ"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            status, _ = run(["compile", "--file", str(path)])
    if not readable:
        assert status == 2
    if status != 0:
        assert status == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


FIELDS = (PrimeField(7), prime_field(), QQ)


@st.composite
def pencil_texts(draw):
    """A small random pencil file, with or without a realize trailer."""
    field = draw(st.sampled_from(FIELDS))
    size, nvars = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    entries = {}
    for r in range(size):
        for c in range(size):
            e = {k: v for k in range(nvars + 1)
                 if rng.random() < 0.5 and (v := field.rand(rng))}
            if e:
                entries[(r, c)] = e
    realize = (rng.randrange(1, size + 1), rng.randrange(1, size + 1)) \
        if draw(st.booleans()) else None
    return dump_pencil(LinearPencil(field, size, nvars, entries), realize)


@st.composite
def tuple_texts(draw):
    field = draw(st.sampled_from(FIELDS))
    return dump_tuple(sample_tuple(field, draw(st.integers(0, 2)), draw(st.integers(1, 3)),
                                   draw(st.integers(0, 2 ** 16))))


@st.composite
def skew_texts(draw):
    """An m x m skew-matrix file of expressions and zeros, m = 1 or 2."""
    m = draw(st.integers(1, 2))
    lines = [f"m {m}"]
    for _ in range(m * m):
        lines.append("expr 0" if draw(st.booleans())
                     else "expr " + expr_text(draw(trees())))
        if draw(st.booleans()):
            lines.append("# a comment")
    return "\n".join(lines) + "\n"


@st.composite
def corpus_texts(draw):
    lines = []
    for i in range(draw(st.integers(1, 4))):
        text = expr_text(draw(trees()))
        lines.append(draw(st.sampled_from([text, f"member{i}: {text}", "# comment", ""])))
    return "\n".join(lines) + "\n"


def _refused(read, text) -> bool:
    """Whether read(text) refuses the text; any other exception fails."""
    try:
        read(text)
    except (ValueError, ParseError):
        return True
    return False


def _exits_two_with_one_line(argv) -> None:
    err = io.StringIO()
    with redirect_stderr(err):
        status, _ = run(argv)
    assert status == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _read_skew(text):
    with tempfile.TemporaryDirectory() as tmp:
        return parse_skew_file(text, prime_field(), base_dir=tmp)


def _read_corpus_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_text(text)
        return _read_corpus(str(path))


@settings(max_examples=300, deadline=None)
@given(garbled(pencil_texts()))
def test_garbled_pencil_files_raise_only_value_errors(text):
    _refused(parse_pencil, text)


@settings(max_examples=300, deadline=None)
@given(garbled(tuple_texts()))
def test_garbled_tuple_files_raise_only_value_errors(text):
    _refused(parse_tuple, text)


@settings(max_examples=200, deadline=None)
@given(garbled(skew_texts()))
def test_garbled_skew_files_raise_only_value_errors(text):
    _refused(_read_skew, text)


@settings(max_examples=100, deadline=None)
@given(garbled(corpus_texts()))
def test_garbled_corpus_files_raise_only_value_errors(text):
    _refused(_read_corpus_text, text)


@settings(max_examples=60, deadline=None)
@given(garbled(pencil_texts()))
def test_series_zero_refuses_garbled_pencil_files_with_one_line(text):
    if _refused(parse_pencil, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "garbled.lp"
            path.write_text(text)
            _exits_two_with_one_line(["series-zero", "--file", str(path)])


@settings(max_examples=60, deadline=None)
@given(garbled(tuple_texts()))
def test_eval_refuses_garbled_point_files_with_one_line(text):
    if _refused(parse_tuple, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "garbled.mt"
            path.write_text(text)
            _exits_two_with_one_line(["eval", "x1", "--point", str(path)])


@settings(max_examples=60, deadline=None)
@given(garbled(skew_texts()))
def test_ncrank_refuses_garbled_skew_files_with_one_line(text):
    if _refused(_read_skew, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "garbled.skm"
            path.write_text(text)
            _exits_two_with_one_line(["ncrank", "--file", str(path)])


_LITERAL = r"[+-]?[0-9]+(/[0-9]+)?"
_LITERALS = st.from_regex(_LITERAL, fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(_LITERALS)
def test_number_literals_read_as_their_fraction(text):
    den = text.partition("/")[2]
    if den and not int(den):
        with pytest.raises(ZeroDivisionError):
            parse_number(text)
    else:
        assert parse_number(text) == Fraction(text)


@settings(max_examples=400, deadline=None)
@given(garbled(_LITERALS) | st.text())
def test_other_number_text_raises_only_value_errors(text):
    try:
        value = parse_number(text)
    except (ValueError, ZeroDivisionError):
        return
    assert re.fullmatch(_LITERAL, text) and value == Fraction(text)


@settings(max_examples=60, deadline=None)
@given(st.integers(MAX_DIM + 1, 10 ** 30), st.sampled_from(FIELDS))
def test_tuple_dimension_above_the_bound_exits_two(d, field):
    # nvars 0: the header alone declares the dimension, no matrix rows bound it
    text = f"field {field_name(field)}\nnvars 0\ndim {d}\n"
    assert _refused(parse_tuple, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "huge.mt"
        path.write_text(text)
        _exits_two_with_one_line(["eval", "1", "--point", str(path)])
