#!/usr/bin/env python3
"""Certify the closed-form revenues against the exact LP oracle.

Runs the built-in grid (n in {2,3}, five low-value probabilities, low value
in {0,1}, high values sweeping every linearity interval and breakpoint) and
prints one verdict line per instance.  Every comparison is an exact rational
equality.

Usage: python scripts/run_certification_grid.py [--n 2] [--out grid.json]
"""

import argparse
import json
import sys
import time

from twopoint_auctions.cli import _certify_line
from twopoint_auctions.oracle import certification_grid, certify_main_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, choices=(2, 3), default=None,
                        help="restrict the grid to one buyer count")
    parser.add_argument("--out", help="also write the reports as JSON")
    args = parser.parse_args()

    ns = (args.n,) if args.n else (2, 3)
    specs = certification_grid(ns=ns)
    reports = []
    t0 = time.perf_counter()
    for spec in specs:
        rep = certify_main_theorem(spec)
        reports.append(rep)
        print(_certify_line(rep))
    elapsed = time.perf_counter() - t0
    ok = sum(1 for r in reports if r.all_equal)
    print(f"certified {ok}/{len(reports)} specs in {elapsed:.1f} s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2)
    return 0 if ok == len(reports) else 3


if __name__ == "__main__":
    sys.exit(main())
