#!/usr/bin/env python3
"""Realize every tree degree sequence by rewiring down from the star.

Decomposes each positive sequence with total 2(n-1) into unit transfers
below the star sequence and undoes them edge by edge on the star,
printing the transfer chain and the resulting tree. Demonstrates the
order-driven constructive pipeline on the family where the dominating
realization is canonical.

Example:
    python scripts/rewire_from_star.py 6
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degseq.graphs import SimpleGraph, degree_sequence, is_connected
from degseq.maximal import enumerate_connected_sequences
from degseq.orders import decompose_into_basic_transfers, format_sequence
from degseq.realizability import realize_via_domination


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int, help="number of vertices (>= 2)")
    parser.add_argument("--edges", action="store_true", help="print each tree's edge list")
    args = parser.parse_args()
    if args.n < 2:
        parser.error("need at least 2 vertices")

    star = SimpleGraph.from_edges(args.n, [(0, v) for v in range(1, args.n)])
    star_seq = degree_sequence(star)
    # every positive sequence with total 2(n-1) is a tree's (Hakimi 1962), so
    # the tree level of the partitions oracle lists them all; max_n lifts its cap
    trees = enumerate_connected_sequences(args.n, 0, "partitions", max_n=args.n)
    for seq in sorted(trees, reverse=True):
        chain = decompose_into_basic_transfers(seq, star_seq)
        tree = realize_via_domination(seq, star)
        assert is_connected(tree) and len(tree.edges) == args.n - 1
        arrows = " ".join(f"({t.from_rank}->{t.to_rank})" for t in chain.steps)
        print(f"{format_sequence(seq):<24} transfers: {arrows if arrows else '(none)'}")
        if args.edges:
            print("    " + " ".join(f"{u}-{v}" for u, v in tree.sorted_edges()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
