"""Pins on the front end, from expression text to rit's gate oracle.

The digests were recorded before the fold kept integer coefficients as ints
and before chains of + and - were laid out as one n-ary sum.  Each hashes
what `ncrat compile --out` writes (its report and the pencil file) and, for
rit's gate, repr((base, core.size, sorted core entries)), which sees the
key order of every entry's {k: value}."""

import hashlib
import random
from fractions import Fraction

import pytest
from test_cli import run

from ncrat.circuit import CircuitBuilder, parse_expr
from ncrat.field import QQ, prime_field
from ncrat.rit import _gate_oracle

FIELDS = (("Q", QQ, ["--rational"]),
          ("M61", prime_field(2 ** 61 - 1), []),
          ("F7", prime_field(7), ["--prime", "7"]))


def _digest(exprs, circuits, field, flags, tmp_path):
    """SHA-256 over `ncrat compile --out` of each expression and the gate
    oracle's reduction of each circuit."""
    h = hashlib.sha256()
    out = tmp_path / "pencil.lp"
    for expr in exprs:
        status, report = run(["compile", expr, "--out", str(out)] + flags)
        assert status == 0
        h.update(report.replace(str(out), "PENCIL").encode())
        h.update(out.read_bytes())
    for c in circuits:
        oracle = _gate_oracle(c, field)
        h.update(repr((oracle.base, oracle.core.size,
                       sorted(oracle.core.entries.items()))).encode())
    return h.hexdigest()


# -- fractional constants -----------------------------------------------------

FRACTION_EXPRS = [
    "2/3*x1 + inv(x2 - 1/3)",
    "1/2 + 1/2 - x1",
    "x1*5/4*x2 - 3/8*inv(x1 + 1/2*x2*x3)",
    "inv(1/3*x1 - 2/9) + inv(inv(x2 + 4/3)*x1) - 10/3",
    "x1 - 2/5 + x1*x2 + 2/5 - x1",
    "inv(x1*x2 - 6/5*x2*x1 + 1/6)*x3",
]

# no denominator 7 divides, so every constant has a value in F_7
DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 8, 9)


def _fraction_circuit(rng):
    """A random tree over x1..x3 whose constants are p/q with q from
    DENOMINATORS, integers included."""
    b = CircuitBuilder()
    live = [b.var(rng.randrange(1, 4)) for _ in range(2)]
    for _ in range(rng.randrange(1, 16)):
        roll = rng.random()
        if roll < 0.25:
            live.append(b.const(Fraction(rng.randrange(-9, 10), rng.choice(DENOMINATORS))))
        elif roll < 0.4 or len(live) < 2:
            live.append(b.var(rng.randrange(1, 4)))
        elif roll < 0.55:
            live.append(b.inv(live.pop(rng.randrange(len(live)))))
        else:
            op = rng.choice((b.add, b.sub, b.mul))
            left = live.pop(rng.randrange(len(live)))
            live.append(op(left, live.pop(rng.randrange(len(live)))))
    out = live.pop()
    while live:
        out = b.add(live.pop(rng.randrange(len(live))), out)
    return b.build(out)


FRACTION_DIGESTS = {
    "Q": "97e0d5e90060f91448084a3908c27a39391fc7634e683f8e1b39e19544cf1596",
    "M61": "889d936a56d8ab5f47ef0f123b95160a82eb25ea52c91eb74c5e0bf1fad69ce3",
    "F7": "a5a6ff918011afd60091d9fed0456d1e85f4510414169c3ee0a190febe274ae4",
}


@pytest.mark.parametrize("name, field, flags", FIELDS, ids=[f[0] for f in FIELDS])
def test_fractional_constants_compile_and_reduce_as_recorded(name, field, flags, tmp_path):
    rng = random.Random(0xF4AC)
    circuits = [parse_expr(e) for e in FRACTION_EXPRS]
    circuits += [_fraction_circuit(rng) for _ in range(120)]
    assert _digest(FRACTION_EXPRS, circuits, field, flags, tmp_path) == FRACTION_DIGESTS[name]


def test_a_constant_without_a_value_in_the_field_is_refused():
    with pytest.raises(ValueError, match="undefined in F_7"):
        _gate_oracle(parse_expr("x1 + 1/7"), prime_field(7))
    status, _ = run(["rit", "x1 + 1/7", "--prime", "7"])
    assert status == 2
    status, _ = run(["compile", "x1 + 1/7", "--prime", "7"])
    assert status == 2


# -- chains of + and - in every association -------------------------------------

# summands of depth 1 (variables, constants, zero, inverses), 2 and 4
SUMMANDS = ("x1", "x2", "x1", "3", "0", "1/2", "inv(x1)", "inv(x2 + 1)",
            "x1*x2", "2*x3", "x2*x1*x3*x1", "(x1 + x2)*x3", "inv(x1)*x2",
            "x3*inv(x1*x2 - 1)*x1")


def _chains(rng, n):
    """n summands and n - 1 signs, written left-nested, right-nested and
    balanced."""
    terms = [rng.choice(SUMMANDS) for _ in range(n)]
    ops = [rng.choice("+-") for _ in range(n - 1)]
    left = terms[0] + "".join(f" {op} {t}" for op, t in zip(ops, terms[1:]))
    right = terms[-1]
    for op, t in zip(reversed(ops), reversed(terms[:-1])):
        right = f"{t} {op} ({right})"

    def balanced(lo, hi):
        if hi - lo == 1:
            return terms[lo]
        mid = (lo + hi) // 2
        return f"({balanced(lo, mid)}) {ops[mid - 1]} ({balanced(mid, hi)})"

    return [left, right, balanced(0, n)]


CHAIN_DIGESTS = {
    "Q": "6c15517a23095f6f3ab0218dcce617de7ac3949d5da6e5a4ab889f6bc1ca7324",
    "M61": "1fce9649d53b26829a2e420c429867e558469a405bb9b656b28d3394d6774676",
    "F7": "a55d32f77cc453cbcef3bd63bc3d94b41e0d13323710936e895dcc6a9b69fae4",
}


@pytest.mark.parametrize("name, field, flags", FIELDS, ids=[f[0] for f in FIELDS])
def test_sum_chains_compile_and_reduce_as_recorded(name, field, flags, tmp_path):
    rng = random.Random(0x5C4A)
    exprs = [e for _ in range(4) for e in _chains(rng, 50)]
    exprs += _chains(random.Random(0x5C4B), 9)
    circuits = [parse_expr(e) for e in exprs]
    assert _digest(exprs, circuits, field, flags, tmp_path) == CHAIN_DIGESTS[name]
