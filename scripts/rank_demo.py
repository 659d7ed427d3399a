#!/usr/bin/env python3
"""Noncommutative rank walkthrough on the 2x2 matrix with a quadratic
entry: both the reduction-pencil route and the direct blow-up route,
plus the Schur-step cross-check at a random evaluation point."""

import argparse
import random

from ncrat.circuit import parse_expr, to_idrrsc
from ncrat.field import prime_field, rank_of, sample_tuple
from ncrat.pencil import compile_idrrsc
from ncrat.rank import (RankParams, assemble_at, build_reduction_pencil,
                        make_skew_matrix, ncrank_skew, schur_step)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prime", type=int, default=prime_field().p)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=8)
    args = ap.parse_args()
    field = prime_field(args.prime)

    entries = [["1", "x1"], ["x2", "x3 + x1*x2"]]
    grid = [[compile_idrrsc(to_idrrsc(parse_expr(e)), field) for e in row]
            for row in entries]
    M = make_skew_matrix(grid, field)
    print(f"input: {entries}")
    sizes = [e.size for row in M.entries for e in row if e is not None]
    print(f"entry pencil sizes s_ij: {sizes}")

    L = build_reduction_pencil(M)
    print(f"reduction pencil size: {L.size} "
          f"(= sum s_ij + m = {sum(sizes) + M.m})")

    res = ncrank_skew(M, RankParams(d_schedule=(1, 2, 3), trials=args.trials,
                                    seed=args.seed))
    print(f"ncrank = {res.r}, witness dimension {res.d}, "
          f"certificate rank {res.certificate}")
    print(f"per-dimension (d, max rank, accepted r_d): {res.per_dim}")

    # Schur cross-check: at a random point with invertible (1,1) entry the
    # complement of the top-left block is z + x y - y x
    rng = random.Random(args.seed)
    t = sample_tuple(field, 3, 2, rng)
    P = assemble_at(M, t)
    comp, holds = schur_step(P, 2)
    x, y, z = t.mats
    expect = z.add(x.matmul(y)).sub(y.matmul(x))
    print(f"schur complement equals z + xy - yx at the point: {comp == expect}")
    print(f"rank identity rank(P) = 2 + rank(complement): {holds}")
    print(f"witness check: rank(M(T)) = {rank_of(assemble_at(M, res.witness))}"
          f" = r*d = {res.r * res.d}")


if __name__ == "__main__":
    main()
