#!/usr/bin/env python3
"""Sweep the maximal degree-sequence sets of connected graphs.

For every vertex count and every feasible number of extra edges d, print
the maximal elements of the prefix-sum order over the realized degree
sequences, flag membership of the two canonical star-augmentation
families, and confirm that every maximal element starts at full degree.

Example:
    python scripts/maximal_sweep.py --max-n 7 --oracle both
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degseq.constructions import clique_fill_sequence, hub_fill_sequence, max_added_edges
from degseq.maximal import ORACLES, maximal_elements
from degseq.orders import format_sequence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--max-d", type=int, default=None, help="cap d per n (default: all)")
    parser.add_argument("--oracle", choices=ORACLES, default="both")
    args = parser.parse_args()

    t0 = time.perf_counter()
    violations = 0
    for n in range(args.min_n, args.max_n + 1):
        d_top = max_added_edges(n)
        if args.max_d is not None:
            d_top = min(d_top, args.max_d)
        for d in range(0, d_top + 1):
            report = maximal_elements(n, d, oracle=args.oracle, max_n=args.max_n)
            hub = hub_fill_sequence(n, d)
            clique = clique_fill_sequence(n, d)
            heads_ok = all(s[0] == n - 1 for s in report.maximal)
            if not heads_ok:
                violations += 1
            print(
                f"n={n} d={d:2d} image={len(report.all_sequences):4d} "
                f"maximal={len(report.maximal):2d} "
                f"hub={'y' if hub in report.maximal else 'N'} "
                f"clique={'y' if clique in report.maximal else 'N'} "
                f"full-head={'y' if heads_ok else 'N'}"
            )
            for s in report.sorted_maximal():
                print(f"    {format_sequence(s)}")
    print(f"done in {time.perf_counter() - t0:.1f}s, head violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
