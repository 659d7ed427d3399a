"""Fuzzing of the expression and circuit-file readers: text printed from
generated trees, then cut, spliced and garbled.  A reader refuses what it
cannot read with ParseError or ValueError, never with another exception,
and the CLI turns that refusal into exit status 2 and one `error:` line."""

import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_circuit import trees
from test_cli import run

from ncrat.circuit import (ParseError, Undefined, dump_circuit, eval_circuit,
                           parse_circuit, parse_expr)
from ncrat.field import prime_field, sample_tuple

# characters and words the two grammars use, plus a few they do not
_PIECES = st.sampled_from(list("()+-*/^_ \n0123456789xy#.e@")
                          + ["inv", "inv(", "^-1", "x0", "x65537", "output",
                             "var", "const", "add", "sub", "mul", "1/0"])
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
