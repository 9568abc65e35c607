"""Pin realizations and transfer chains to the first, quadratic code.

`legacy_reference` keeps verbatim copies of the original greedy
realization, connected realization, transfer decomposition and rewiring
step. The library's rewrites must return exactly the same edge sets and
chains (and raise the same errors), exhaustively at small sizes and on
random inputs up to n = 60.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

import legacy_reference as legacy
from degseq.constructions import build_clique_fill, build_hub_fill, max_added_edges
from degseq.graphs import SimpleGraph, degree_sequence
from degseq.maximal import bounded_partitions
from degseq.orders import DegreeSequence, decompose_into_basic_transfers, majorized
from degseq.realizability import (
    apply_inverse_transfer,
    erdos_gallai,
    is_c_graphical,
    realize,
    realize_connected,
    realize_via_domination,
)

D = DegreeSequence


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, not handled
        return "error", type(exc), str(exc)


def nonincreasing(n, max_value):
    for combo in itertools.combinations_with_replacement(range(max_value, -1, -1), n):
        yield D(combo)


def star(n):
    return SimpleGraph.from_edges(n, [(0, v) for v in range(1, n)])


def test_realize_every_graphical_sequence_up_to_7():
    count = 0
    for n in range(1, 8):
        for x in nonincreasing(n, n - 1):
            if erdos_gallai(x):
                assert realize(x) == legacy.realize(x), x
                count += 1
    assert count == 493


def test_realize_connected_every_c_graphical_sequence_up_to_7():
    count = 0
    for n in range(1, 8):
        for x in nonincreasing(n, n - 1):
            if is_c_graphical(x):
                assert realize_connected(x) == legacy.realize_connected(x), x
                count += 1
    assert count == 333


def test_realize_refusals_match():
    for x in (D((3, 3, 1, 1)), D((3, 1)), D((2, 2, 0)), D((1, 1, 1, 1))):
        assert outcome(realize_connected, x) == outcome(legacy.realize_connected, x)
        assert outcome(realize, x) == outcome(legacy.realize, x)


def test_decompose_every_dominated_pair_up_to_7():
    """Every equal-sum pair x <= y of length n <= 7 with entries below n."""
    pairs = 0
    for n in range(1, 8):
        by_sum = {}
        for s in nonincreasing(n, n - 1):
            by_sum.setdefault(sum(s), []).append(s)
        for group in by_sum.values():
            for x in group:
                for y in group:
                    if majorized(x, y):
                        chain = decompose_into_basic_transfers(x, y)
                        assert chain == legacy.decompose_into_basic_transfers(x, y), (x, y)
                        pairs += 1
    assert pairs == 50772


def test_realize_via_domination_from_the_star_up_to_7():
    count = 0
    for n in range(2, 8):
        g = star(n)
        for part in bounded_partitions(2 * (n - 1), n, max_part=n - 1, min_part=1):
            x = D(part)
            assert realize_via_domination(x, g) == legacy.realize_via_domination(x, g), x
            count += 1
    assert count == 19


def test_realize_via_domination_from_both_fills_up_to_7():
    for n in range(2, 8):
        for d in range(max_added_edges(n) + 1):
            for g in (build_hub_fill(n, d), build_clique_fill(n, d)):
                y = degree_sequence(g)
                for x in nonincreasing(n, n - 1):
                    if x[-1] >= 1 and sum(x) == sum(y) and majorized(x, y):
                        assert realize_via_domination(x, g) == legacy.realize_via_domination(
                            x, g
                        ), (n, d, x)


def test_realize_via_domination_from_graphs_with_an_isolated_vertex_up_to_6():
    """Disconnected starts: every graph on vertices 0..n-2 plus the isolated
    vertex n-1, to every dominated sequence. Some chains connect the graph
    midway, after which the shortest path decides the pivot."""
    count = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n - 1), 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
            y = degree_sequence(g)
            for x in nonincreasing(n, n - 1):
                if sum(x) == sum(y) and majorized(x, y):
                    assert outcome(realize_via_domination, x, g) == outcome(
                        legacy.realize_via_domination, x, g
                    ), (g, x)
                    count += 1
    assert count == 5413


def test_apply_inverse_transfer_every_graph_and_rank_pair_up_to_5():
    """Every labeled graph on at most 5 vertices, connected or not, and
    every rank pair (valid or not): the same graph or the same error."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = SimpleGraph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
            for i in range(0, n + 1):
                for j in range(i, n + 2):
                    assert outcome(apply_inverse_transfer, g, i, j) == outcome(
                        legacy.apply_inverse_transfer, g, i, j
                    ), (g, i, j)


@st.composite
def random_graphs(draw, max_n=60):
    n = draw(st.integers(2, max_n))
    p = draw(st.floats(0.0, 1.0))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    return SimpleGraph.from_edges(n, edges)


@st.composite
def robin_hood_pairs(draw, max_n=60, max_value=60):
    """(x, y) with x <= y: x is y after random rich-to-poor unit moves."""
    n = draw(st.integers(1, max_n))
    y = D(draw(st.lists(st.integers(0, max_value), min_size=n, max_size=n)))
    return robin_hood(draw, y), y


def robin_hood(draw, y):
    vals = list(y)
    n = len(vals)
    moves = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    for i, j in draw(moves):
        if vals[i] >= vals[j] + 2:
            vals[i] -= 1
            vals[j] += 1
    return D(vals)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_realizations_match_on_random_graph_degrees(g):
    x = degree_sequence(g)
    assert realize(x) == legacy.realize(x)
    assert outcome(realize_connected, x) == outcome(legacy.realize_connected, x)


@settings(max_examples=100, deadline=None)
@given(robin_hood_pairs())
def test_decompose_matches_on_random_pairs(pair):
    x, y = pair
    assert decompose_into_basic_transfers(x, y) == legacy.decompose_into_basic_transfers(x, y)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_realize_via_domination_matches_on_random_graphs(data):
    g = data.draw(random_graphs())
    x = robin_hood(data.draw, degree_sequence(g))
    assert outcome(realize_via_domination, x, g) == outcome(
        legacy.realize_via_domination, x, g
    )


def test_realize_4_regular_20000():
    n = 20_000
    g = realize(D([4] * n))
    assert len(g.edges) == 2 * n
    assert all(g.degree(v) == 4 for v in range(n))
