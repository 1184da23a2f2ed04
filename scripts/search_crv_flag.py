#!/usr/bin/env python3
"""Exhaustive Groebner-flag search over k[x,y,z]/(x^2, xy, yz, z^2).

The subsets-of-variables family is a Koszul filtration of this ring, but the
search shows, for each field whose search ends within the budget, that no
single complete flag works: every branch dies on a colon that is not a
prefix ideal. The budget is the search's only limit; by default it exhausts
F_2 to F_11 within it.
"""

import argparse
import sys
import time

from koszulkit.arith import polynomial_ring
from koszulkit.filtration import BudgetExceededError, search_groebner_flag
from koszulkit.quotient import make_ring


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chars", type=int, nargs="+", default=[2, 3, 5, 7, 11])
    ap.add_argument("--budget", type=int, default=5000)
    args = ap.parse_args()

    found_any = False
    for p in args.chars:
        s, (x, y, z) = polynomial_ring(p, ("x", "y", "z"))
        ring = make_ring(s, [x**2, x * y, y * z, z**2])
        t0 = time.time()
        try:
            result = search_groebner_flag(ring, args.budget)
        except BudgetExceededError as exc:
            print(f"p={p}: budget exceeded ({exc})")
            continue
        dt = time.time() - t0
        if result.certificate is None:
            print(
                f"p={p}: exhausted, no Groebner flag "
                f"({result.candidates_tested} candidates, "
                f"{result.flags_completed} complete flags, {dt:.2f}s)"
            )
        else:
            found_any = True
            print(f"p={p}: FOUND {result.certificate.to_json()}")
    return 1 if found_any else 0


if __name__ == "__main__":
    sys.exit(main())
