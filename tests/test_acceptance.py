"""Acceptance suite: one test per criterion, each printing a PASS line.

Every test is exhaustive or exact-reproduction based and asserts its own
runtime budget. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import itertools
import time

from brute_partitions import partitions
from degseq.constructions import (
    build_clique_fill,
    build_hub_fill,
    clique_fill_sequence,
    hub_fill_sequence,
    incomplete_star,
    max_added_edges,
)
from degseq.graphs import SimpleGraph, degree_sequence, is_connected
from degseq.maximal import (
    enumerate_connected_sequences,
    maximal_elements,
)
from degseq.orders import (
    DegreeSequence,
    decompose_into_basic_transfers,
    majorized,
    min_tail_sum,
)
from degseq.realizability import (
    erdos_gallai,
    generalized_reduce,
    havel_hakimi,
    havel_hakimi_trace,
    is_c_graphical,
    non_graphical_certificate,
    realize_connected,
    realize_via_domination,
    reduce_to_constant,
)

D = DegreeSequence


def all_nonincreasing(length, max_value):
    for combo in itertools.combinations_with_replacement(range(max_value, -1, -1), length):
        yield D(combo)


def grouped_by_sum(length, max_value):
    groups = {}
    for seq in all_nonincreasing(length, max_value):
        groups.setdefault(sum(seq), []).append(seq)
    return groups


def report(k, elapsed, budget, detail):
    line = f"criterion {k}: PASS ({elapsed:.2f}s < {budget}s) {detail}"
    print(line)
    assert elapsed < budget, line


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()

    # (a) head-reduction chain, bit exact
    ok, trace = havel_hakimi_trace(D((5, 4, 4, 3, 3, 3)))
    assert ok
    assert [tuple(s.after) for s in trace.steps] == [
        (3, 3, 2, 2, 2),
        (2, 2, 1, 1),
        (1, 1, 0),
        (0, 0),
    ]

    # (b) one generalized step to a constant, accepted by the constant rule
    assert generalized_reduce(D((5, 4, 4, 3, 3, 3)), 1, 2) == D((3, 3, 3, 3, 3, 3))
    verdict = reduce_to_constant(D((5, 4, 4, 3, 3, 3)))
    assert verdict.graphical
    assert len(verdict.certificate.steps) == 1
    assert verdict.certificate.steps[0].after == D((3, 3, 3, 3, 3, 3))
    assert verdict.certificate.outcome.startswith("constant a=3")

    # (c) rejection with the canonical dominated witness
    witness = non_graphical_certificate(D((4, 4, 3, 2, 1)))
    assert witness is not None and witness.witness == D((4, 4, 2, 2, 2))
    assert majorized(witness.witness, D((4, 4, 3, 2, 1)))
    assert not erdos_gallai(D((4, 4, 3, 2, 1)))

    # (d) interior-rank reduction
    assert generalized_reduce(D((2, 2, 2, 1, 1)), 3, 1) == D((2, 1, 1, 1, 1))

    # (e) the two counterexample sequences
    assert not erdos_gallai(D((4, 4, 2, 1, 1)))
    assert erdos_gallai(D((2, 1, 1, 1, 1)))
    assert not is_c_graphical(D((2, 1, 1, 1, 1)))

    report(1, time.perf_counter() - t0, 1.0, "five worked examples reproduced")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    cases = disagreements = 0
    for n in range(1, 8):
        for seq in all_nonincreasing(n, n - 1):
            cases += 1
            if erdos_gallai(seq) != havel_hakimi(seq):
                disagreements += 1
    assert disagreements == 0
    report(2, time.perf_counter() - t0, 10.0, f"{cases} sequences, 0 disagreements")


def _connected_graphs_up_to(max_n):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            g = SimpleGraph(n, edges)
            if is_connected(g):
                yield g


def test_criterion_3_domination_closure():
    t0 = time.perf_counter()

    # graphical closure over the exhaustive equal-sum family
    pair_count = 0
    for n in range(1, 7):
        for group in grouped_by_sum(n, 5).values():
            graphical = {seq: erdos_gallai(seq) for seq in group}
            for x in group:
                for y in group:
                    if majorized(x, y):
                        pair_count += 1
                        if graphical[y]:
                            assert graphical[x], (x, y)

    # constructive connected closure over every connected graph
    partition_cache = {}
    graphs = realizations = 0
    for g in _connected_graphs_up_to(6):
        graphs += 1
        y = degree_sequence(g)
        n, total = g.n, sum(y)
        key = (n, total)
        if key not in partition_cache:
            if n == 1:
                partition_cache[key] = [D((0,))] if total == 0 else []
            else:
                partition_cache[key] = [
                    D(p)
                    for p in partitions(total, n, max_part=n - 1, min_part=1)
                ]
        for x in partition_cache[key]:
            if not majorized(x, y):
                continue
            h = realize_via_domination(x, g)
            realizations += 1
            assert degree_sequence(h) == x
            assert is_connected(h)

    report(
        3,
        time.perf_counter() - t0,
        300.0,
        f"{pair_count} ordered pairs, {graphs} connected graphs, {realizations} rewired realizations",
    )


def test_criterion_4_tail_sum_lemma():
    t0 = time.perf_counter()
    pairs = checks = 0
    for n in range(1, 8):
        for group in grouped_by_sum(n, 7).values():
            for x in group:
                for y in group:
                    if x is not y and majorized(x, y):
                        pairs += 1
                        for k in range(1, n + 1):
                            checks += 1
                            assert min_tail_sum(x, k) >= min_tail_sum(y, k), (x, y, k)
    report(4, time.perf_counter() - t0, 60.0, f"{pairs} pairs, {checks} inequalities, 0 violations")


def test_criterion_5_construction_consistency():
    t0 = time.perf_counter()
    levels = 0
    for n in range(2, 10):
        for d in range(0, max_added_edges(n) + 1):
            levels += 1
            assert degree_sequence(build_hub_fill(n, d)) == hub_fill_sequence(n, d)
            assert degree_sequence(build_clique_fill(n, d)) == clique_fill_sequence(n, d)
    # spot checks
    assert hub_fill_sequence(5, 3) == D((4, 4, 2, 2, 2))
    for n in range(5, 10):
        assert clique_fill_sequence(n, 3) == D((n - 1, 3, 3, 3) + (1,) * (n - 4))
    for n in range(6, 10):
        assert clique_fill_sequence(n, 6) == D((n - 1, 4, 4, 4, 4) + (1,) * (n - 5))
    report(5, time.perf_counter() - t0, 10.0, f"{levels} (n,d) levels, both families")


def test_criterion_6_maximal_catalog_and_oracles():
    t0 = time.perf_counter()

    # dual-oracle agreement for every level with at most 7 vertices
    levels = 0
    for n in range(2, 8):
        for d in range(0, max_added_edges(n) + 1):
            enumerate_connected_sequences(n, d, oracle="both")
            levels += 1

    # catalog: exact for d <= 2 (singleton) and d in {3,4} (pair)
    for n in (6, 7):
        for d in (0, 1, 2):
            assert maximal_elements(n, d).maximal == {hub_fill_sequence(n, d)}
        for d in (3, 4):
            assert maximal_elements(n, d).maximal == {
                hub_fill_sequence(n, d),
                clique_fill_sequence(n, d),
            }

    # strictly larger maximal set at n=7, d=5, containing the extra witness
    report7 = maximal_elements(7, 5)
    pair = {hub_fill_sequence(7, 5), clique_fill_sequence(7, 5)}
    assert pair < report7.maximal
    assert D((6, 5, 3, 3, 2, 2, 1)) in report7.maximal

    report(
        6,
        time.perf_counter() - t0,
        300.0,
        f"{levels} dual-oracle levels, catalogs at n=6,7, strict superset at (7,5)",
    )


def test_criterion_7_maximal_heads():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for d in range(0, max_added_edges(n) + 1):
            rep = maximal_elements(n, d)
            for s in rep.maximal:
                checked += 1
                assert s[0] == n - 1, (n, d, s)
    report(7, time.perf_counter() - t0, 300.0, f"{checked} maximal elements, 0 violations")


def test_criterion_8_trees_and_deficits():
    t0 = time.perf_counter()

    trees = 0
    for n in range(2, 9):
        for part in partitions(2 * (n - 1), n, max_part=n - 1, min_part=1):
            g = realize_connected(D(part))
            trees += 1
            assert is_connected(g)
            assert len(g.edges) == n - 1

    deficits = 0
    for n in range(2, 9):
        for d in range(-(n - 1), 0):
            top, _ = incomplete_star(n, d)
            total = sum(top)
            for part in partitions(total, n, max_part=n - 1, min_part=0):
                seq = D(part)
                if majorized(seq, top):
                    deficits += 1
                    assert erdos_gallai(seq), (n, d, seq)

    report(
        8,
        time.perf_counter() - t0,
        60.0,
        f"{trees} tree realizations, {deficits} deficit sequences",
    )


def test_criterion_9_transfer_decomposition():
    t0 = time.perf_counter()
    chains = steps = 0
    for n in range(1, 8):
        for group in grouped_by_sum(n, 8).values():
            for x in group:
                for y in group:
                    if majorized(x, y):
                        chain = decompose_into_basic_transfers(x, y)
                        chains += 1
                        replay = chain.replay()  # validates every step
                        steps += len(chain.steps)
                        assert replay[-1] == y, (x, y)
    report(
        9,
        time.perf_counter() - t0,
        120.0,
        f"{chains} chains replayed, {steps} unit transfers, 0 failures",
    )
