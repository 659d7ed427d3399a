"""Inputs far deeper than Python's recursion limit.

Formula size, not nesting depth, bounds what the parser, the tree
expansion, the decomposition and the circuit-file reader accept; every
test here runs at the default recursion limit."""

import pytest
from test_cli import run

from ncrat.circuit import (classify, eval_circuit, parse_circuit, parse_expr,
                           to_idrrsc)
from ncrat.field import prime_field, sample_tuple
from ncrat.pencil import compile_idrrsc
from reference import eval_idrrsc


def test_sum_of_ten_thousand_leaves_compiles_and_tests():
    expr = " + ".join(f"x{k % 5 + 1}" if k % 3 else str(k % 7 + 1)
                      for k in range(10000))
    status, out = run(["compile", expr])
    assert status == 0 and "size_bound_16s2 True" in out
    status, out = run(["rit", expr])
    assert status == 0 and "verdict NONZERO" in out


def test_sum_of_degree_two_monomials_compiles_and_tests():
    expr = " + ".join(f"x{k % 3 + 1}*x{(k + 1) % 3 + 1}" for k in range(1500))
    status, out = run(["compile", expr])
    assert status == 0 and "pencil_size 1502" in out
    status, out = run(["rit", expr])
    assert status == 0 and "verdict NONZERO" in out


def test_five_thousand_nested_parentheses():
    c = parse_expr("(" * 5000 + "x1 + 2" + ")" * 5000)
    assert c.nodes == (("var", 1), ("const", 2), ("add", 0, 1))


def test_inverse_nested_two_thousand_deep():
    c = parse_expr("inv(" * 2000 + "x1" + ")" * 2000)
    assert len(c.nodes) == 2001 and classify(c).height == 2000


@pytest.mark.parametrize("depth, size", [(600, 6602), (2000, 22002)])
def test_inverse_nested_deep_compiles_and_evaluates(depth, size):
    # each level composes a size-2 host around the level below: 11 rows more
    expr = "inv(" * depth + "x1" + ")" * depth
    status, out = run(["compile", expr])
    assert status == 0 and f"\nheight {depth}\n" in out
    assert f"\npencil_size {size}\n" in out
    c = parse_expr(expr)
    idr = to_idrrsc(c)
    assert idr.height == depth and idr.size == 3 * depth + 2
    t = sample_tuple(prime_field(), 1, 2, 5)
    assert eval_idrrsc(idr, t) == eval_circuit(c, t)


def _deep_chain_file(depth: int) -> str:
    """add-chain of the given depth with parents listed before children."""
    lines = [f"{k} add {k + 1} {depth + k}" for k in range(depth - 1)]
    lines.append(f"{depth - 1} var 1")
    lines += [f"{depth + k} var {k % 4 + 1}" for k in range(depth - 1)]
    return "\n".join(lines) + "\noutput 0\n"


def test_deep_circuit_file_parses_and_compiles(tmp_path):
    text = _deep_chain_file(5000)
    c = parse_circuit(text)
    assert len(c.nodes) == 9999 and c.nodes[-1] == ("add", 9996, 9997)
    path = tmp_path / "deep.circ"
    path.write_text(text)
    status, out = run(["compile", "--file", str(path)])
    assert status == 0 and "\nsize 9999\n" in out


def test_sum_of_four_thousand_products_compiles_and_evaluates():
    # a sum of products lowers to a branching program with 4,000 vertices in
    # each inner layer, which only a sparse layer format keeps linear
    c = parse_expr(" + ".join(["x1*x2*x1"] * 4000))
    e = compile_idrrsc(to_idrrsc(c), prime_field())
    assert e.size == 8002
    t = sample_tuple(prime_field(), 2, 2, 401)
    assert e.value_at(t) == eval_circuit(c, t)
