"""Output of the experiment scripts, checked by running them."""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from brute_partitions import partitions

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("n", range(2, 9))
def test_rewire_from_star_lists_every_tree_sequence(n):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "rewire_from_star.py"), str(n), "--edges"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) % 2 == 0
    sequences = [tuple(map(int, line.split()[0].split(","))) for line in lines[0::2]]
    # every positive sequence with total 2(n-1), largest first
    assert sequences == list(partitions(2 * (n - 1), n, max_part=n - 1, min_part=1))
    for seq, line in zip(sequences, lines[1::2]):
        tree = nx.empty_graph(n)
        tree.add_edges_from(tuple(map(int, e.split("-"))) for e in line.split())
        assert nx.is_tree(tree), line
        assert sorted((d for _, d in tree.degree), reverse=True) == list(seq), line
