#!/usr/bin/env python3
"""Print the center-dimension table for small n, by all three routes.

The interesting row is the group algebra at n = 6, where the closed formula
(12) stops matching the commutant dimension (11, the partition count): the
formula belongs to the Nilcoxeter and 0-Hecke algebras only.

Exits 1 when the rank and commutant routes disagree for any algebra, or when
the formula differs from them for the Nilcoxeter or 0-Hecke algebra; the
group algebra's divergence from the formula is only noted.
"""

import argparse
import sys
import time

from mobius_centers import GROUP_ALGEBRA, NILCOXETER, ZERO_HECKE
from mobius_centers.centers import center
from mobius_centers.partitions import center_dim_formula
from mobius_centers.quotients import quotient_dim

ALGEBRAS = [("nilcoxeter", NILCOXETER), ("0-hecke", ZERO_HECKE), ("group", GROUP_ALGEBRA)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5,
                        help="largest number of strands (default 5; 7 takes about a second)")
    args = parser.parse_args(argv)

    failed = False
    print(f"{'n':>2} {'algebra':<10} {'formula':>8} {'quotient':>9} {'commutant':>10} {'time':>8}")
    for n in range(1, args.max_n + 1):
        formula = center_dim_formula(n)
        for name, params in ALGEBRAS:
            start = time.perf_counter()
            by_rank = quotient_dim(n, params, twisted=True)
            by_commutant = center(n, params).dim
            elapsed = time.perf_counter() - start
            if by_rank != by_commutant:
                marker, failed = "  <- ROUTES DISAGREE", True
            elif by_rank == formula:
                marker = ""
            elif params == GROUP_ALGEBRA:
                marker = "  <- formula differs (expected for the group algebra)"
            else:
                marker, failed = "  <- FORMULA DIFFERS", True
            print(
                f"{n:>2} {name:<10} {formula:>8} {by_rank:>9} {by_commutant:>10}"
                f" {elapsed:>7.2f}s{marker}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
