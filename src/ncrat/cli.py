"""Command-line front end.

Reports are line-oriented `key value` pairs (optionally followed by a
JSON block) and echo every effective parameter, so any Monte Carlo
verdict can be re-checked independently.  Exit status: 0 on success, 1
when a zero/singular/undefined verdict frustrated an explicit witness
request, 2 on input errors and when ncrank's trials leave the rank
unsettled.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import rank as rank_mod
from . import rit as rit_mod
from .circuit import (ParseError, Undefined, classify, eval_circuit,
                      parse_expr, read_circuit)
from .field import (DEFAULT_PRIME, QQ, DenseMatrix, PrimeField, field_name,
                    is_invertible, rank_of, read_tuple, write_tuple)
from .pencil import read_pencil, write_pencil
from .rank import DivisibilityAnomaly, RankParams, ncrank_skew, read_skew_file
from .rit import (RitParams, bootstrap_dimension, hitting_set_generate,
                  rit_test, verify_strong)
from .series import RecognizableSeries, series_is_zero, truncated_eval


class InputError(Exception):
    pass


def _field(args):
    if getattr(args, "rational", False):
        return QQ
    return PrimeField(args.prime)


def _load_circuit(args):
    if args.expr is not None:
        return parse_expr(args.expr)
    if args.file:
        return read_circuit(args.file)
    raise InputError("need an expression or --file")


def _echo(report, args, field):
    report.append(("prime", field.p if field.kind == "prime" else "rational"))
    report.append(("seed", args.seed))


def _emit(report, as_json: bool):
    for key, value in report:
        print(key, value)
    if as_json:
        print(json.dumps({k: v for k, v in report}, default=str))


def _parse_dims(text):
    """A comma-separated list of positive blow-up dimensions."""
    dims = []
    for part in text.split(","):
        if not part.strip().isdigit() or int(part) < 1:
            raise InputError(f"--dims: {part.strip()!r} is not a positive integer")
        dims.append(int(part))
    return tuple(dims)


def _read_corpus(path):
    """Expression corpus file: one `name: expression` (or bare expression)
    per non-comment line.  A malformed expression raises ValueError naming
    the line."""
    out = []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if ":" in ln:
                name, _, expr = ln.partition(":")
                name, expr = name.strip(), expr.strip()
            else:
                name, expr = f"line{lineno}", ln
            try:
                out.append((name, parse_expr(expr)))
            except ParseError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return out


def cmd_compile(args) -> int:
    field = _field(args)
    circ = _load_circuit(args)
    info = classify(circ)
    entry = rit_mod.compile_circuit(circ, field)
    report = [("command", "compile"), ("size", info.size),
              ("height", info.height), ("pencil_size", entry.size),
              ("realize_row", entry.row), ("realize_col", entry.col),
              ("size_bound_16s2", entry.size <= 16 * info.size ** 2)]
    _echo(report, args, field)
    if args.out:
        write_pencil(entry.pencil, args.out, realize=(entry.row, entry.col))
        report.append(("pencil_file", args.out))
    _emit(report, args.json)
    return 0


def cmd_rit(args) -> int:
    field = _field(args)
    params = RitParams(max_dim=args.max_dim, trials=args.trials, seed=args.seed)
    if args.corpus:
        members = _read_corpus(args.corpus)
        report = [("command", "rit"), ("corpus", args.corpus),
                  ("members", len(members))]
        _echo(report, args, field)
        zero_count = 0
        for name, circ in members:
            verdict = rit_test(circ, field, params)
            report.append((f"verdict_{name}", verdict.kind.upper()))
            zero_count += verdict.is_zero
        report.append(("zero_count", zero_count))
        _emit(report, args.json)
        return 0
    circ = _load_circuit(args)
    verdict = rit_test(circ, field, params)
    report = [("command", "rit"), ("verdict", verdict.kind.upper()),
              ("pencil_size", verdict.pencil_size),
              ("max_dim", verdict.max_dim), ("trials", verdict.trials_run)]
    _echo(report, args, field)
    status = 0
    if verdict.kind == "zero":
        report.append(("error_bound_per_trial",
                       f"{verdict.error_bound_num}/{verdict.error_bound_den}"))
        if args.witness_out:
            status = 1
    else:
        report.append(("witness_dim", verdict.dimension))
        if args.witness_out:
            write_tuple(verdict.witness, args.witness_out)
            back = read_tuple(args.witness_out)
            ok = is_invertible(eval_circuit(circ, back))
            report.append(("witness_file", args.witness_out))
            report.append(("witness_verified", ok))
    _emit(report, args.json)
    return status


def cmd_ncrank(args) -> int:
    field = _field(args)
    M = read_skew_file(args.file, field)
    dims = _parse_dims(args.dims) if args.dims is not None else None
    try:
        res = ncrank_skew(M, RankParams(d_schedule=dims, trials=args.trials,
                                        seed=args.seed))
    except DivisibilityAnomaly as exc:
        raise InputError(f"rank not settled: {exc}; raise --trials or use a "
                         "larger --prime") from None
    report = [("command", "ncrank"), ("m", M.m), ("entry_size", M.common_size),
              ("dims", args.dims or f"1..{2 * M.m}"), ("trials", args.trials),
              ("rank", res.r), ("witness_dim", res.d),
              ("certificate", res.certificate)]
    _echo(report, args, field)
    status = 0
    if args.witness_out:
        if res.r == 0:
            status = 1
        else:
            write_tuple(res.witness, args.witness_out)
            back = read_tuple(args.witness_out)
            ok = rank_of(rank_mod.assemble_at(M, back)) == res.certificate
            report.append(("witness_file", args.witness_out))
            report.append(("witness_verified", ok))
    _emit(report, args.json)
    return status


def cmd_hitgen(args) -> int:
    field = _field(args)
    hs = hitting_set_generate(args.nvars, args.size, args.height, args.dim,
                              args.kappa, field)
    report = [("command", "hitgen"), ("nvars", hs.n), ("size", hs.s),
              ("height", hs.h), ("dim", hs.d), ("kappa", hs.kappa),
              ("tuples", len(hs.tuples))]
    _echo(report, args, field)
    if args.out_prefix:
        for idx, t in enumerate(hs.tuples):
            write_tuple(t, f"{args.out_prefix}{idx:04d}.mt")
        report.append(("files", f"{args.out_prefix}0000.mt .. "
                                f"{args.out_prefix}{len(hs.tuples) - 1:04d}.mt"))
    if args.corpus:
        members = _read_corpus(args.corpus)
        rep = verify_strong(hs, members, field)
        for label, hit in rep.results:
            report.append((f"hit_{label}", hit if hit is not None else "none"))
        report.append(("hit_rate", f"{rep.hits}/{rep.total}"))
    _emit(report, args.json)
    return 0


def cmd_eval(args) -> int:
    field = _field(args)
    circ = _load_circuit(args)
    point = read_tuple(args.point)
    if point.field != field:
        raise InputError(f"point file is over {field_name(point.field)}, "
                         f"but the working field is {field_name(field)}")
    report = [("command", "eval"), ("dim", point.d)]
    _echo(report, args, field)
    status = 0
    try:
        value = eval_circuit(circ, point)
        report.append(("defined", True))
        report.append(("value_rank", rank_of(value)))
        _emit(report, args.json)
        for i in range(value.rows):
            print(" ".join(field.format(x) for x in value.row(i)))
    except Undefined as exc:
        report.append(("defined", False))
        report.append(("undefined_at_node", exc.node))
        _emit(report, args.json)
        status = 1
    return status


def cmd_series_zero(args) -> int:
    L, realize = read_pencil(args.file)
    if any(0 in e for e in L.entries.values()):
        raise InputError("transition pencil must be homogeneous (A0 = 0)")
    if realize is None:
        raise InputError("pencil file needs a `realize u v` trailer")
    c = DenseMatrix.zeros(L.field, 1, L.size)
    c.data[realize[0] - 1] = L.field.one
    b = DenseMatrix.zeros(L.field, L.size, 1)
    b.data[realize[1] - 1] = L.field.one
    S = RecognizableSeries(c, L, b)
    verdict = series_is_zero(S, trials=args.trials, seed=args.seed)
    report = [("command", "series-zero"), ("size", S.size),
              ("verdict", verdict.kind.upper()),
              ("test_dim", verdict.dimension), ("trials", verdict.trials)]
    _echo(report, args, L.field)
    status = 0
    if verdict.kind == "zero":
        report.append(("error_bound_per_trial",
                       f"{verdict.error_bound_num}/{verdict.error_bound_den}"))
        if args.witness_out:
            status = 1
    elif args.witness_out:
        write_tuple(verdict.witness, args.witness_out)
        back = read_tuple(args.witness_out)
        ok = not truncated_eval(S, S.size - 1, back).is_zero()
        report.append(("witness_file", args.witness_out))
        report.append(("witness_verified", ok))
    _emit(report, args.json)
    return status


def cmd_bootstrap(args) -> int:
    field = _field(args)
    circ = _load_circuit(args)
    dims = _parse_dims(args.dims) if args.dims is not None else (1, 2, 3, 4)
    rep = bootstrap_dimension(circ, field, schedule=dims, trials=args.trials,
                              seed=args.seed)
    report = [("command", "bootstrap"), ("height", rep.height),
              ("dims", ",".join(str(d) for d in dims)),
              ("trials", args.trials),
              ("smallest_defined", rep.smallest_defined),
              ("smallest_invertible", rep.smallest_invertible)]
    _echo(report, args, field)
    for row in rep.rows:
        report.append((f"dim_{row.d}",
                       f"defined={row.defined} invertible={row.invertible} "
                       f"route={row.route} series_size={row.series_size} "
                       f"truncation_nonzero={row.truncation_nonzero} "
                       f"tau={row.tau} assembled_dim={row.assembled_dim} "
                       f"assembled_nonzero={row.assembled_nonzero}"))
    _emit(report, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="prime modulus of the working field")
    common.add_argument("--rational", action="store_true",
                        help="work over exact rationals")
    common.add_argument("--seed", type=int, default=1,
                        help="seed for every randomized step (echoed)")
    common.add_argument("--trials", type=int, default=8,
                        help="sampling trials per dimension")
    common.add_argument("--json", action="store_true",
                        help="append a JSON block to the report")

    top = argparse.ArgumentParser(prog="ncrat", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compile", parents=[common],
                       help="compile an expression to a pencil realization")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--file", help="circuit file instead of an inline expression")
    p.add_argument("--out", help="write the pencil (with realize trailer) here")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("rit", parents=[common],
                       help="randomized rational identity test")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--file")
    p.add_argument("--corpus", help="batch-test an expression corpus file")
    p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
    p.add_argument("--witness-out", dest="witness_out")
    p.set_defaults(func=cmd_rit)

    p = sub.add_parser("ncrank", parents=[common],
                       help="noncommutative rank of a skew-matrix file")
    p.add_argument("--file", required=True)
    p.add_argument("--dims", help="comma-separated blow-up schedule")
    p.add_argument("--witness-out", dest="witness_out")
    p.set_defaults(func=cmd_ncrank)

    p = sub.add_parser("hitgen", parents=[common],
                       help="generate a desk-scale strong hitting set")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--out-prefix", dest="out_prefix")
    p.add_argument("--corpus", help="verify strength against this corpus file")
    p.set_defaults(func=cmd_hitgen)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate an expression at a matrix tuple")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--file")
    p.add_argument("--point", required=True, help="matrix-tuple file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("series-zero", parents=[common],
                       help="zero-test a recognizable series given as a "
                            "homogeneous pencil file with a realize trailer")
    p.add_argument("--file", required=True)
    p.add_argument("--witness-out", dest="witness_out")
    p.set_defaults(func=cmd_series_zero)

    p = sub.add_parser("bootstrap", parents=[common],
                       help="dimension-bootstrapping experiment")
    p.add_argument("expr", nargs="?", default=None)
    p.add_argument("--file")
    p.add_argument("--dims")
    p.set_defaults(func=cmd_bootstrap)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
