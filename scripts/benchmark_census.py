#!/usr/bin/env python3
"""Time the census engines across moduli.

The naive engine scans all n^9 matrices; the tiered engine walks pairs of
first- and second-row orbits under unit scaling, which stand for all n^6
prefixes, and counts third rows per linear-form bucket. Both are exact. Where
both run they must agree entry for entry; the script exits with status 1 if
they do not.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gl3census import oracle


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--max-n", type=int, default=13)
    args = parser.parse_args()
    print(f"{'n':>3} {'tiered':>9} {'naive':>9}  zero-permanent count")
    mismatches = []
    for n in range(2, args.max_n + 1):
        t0 = time.perf_counter()
        tiered = oracle.census_tiered(n, threads=args.threads)
        t_tiered = time.perf_counter() - t0
        if n <= oracle.NAIVE_LIMIT:
            t0 = time.perf_counter()
            naive = oracle.census_naive(n, threads=args.threads)
            t_naive = f"{time.perf_counter() - t0:>8.2f}s"
            if naive.counts != tiered.counts:
                mismatches.append(n)
        else:
            t_naive = "       -"
        print(f"{n:>3} {t_tiered:>8.2f}s {t_naive}  {tiered[0]}")
    if mismatches:
        print(f"naive and tiered censuses differ at n = {mismatches}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
