"""Pin realizations, transfer chains and reduction traces to earlier code.

`legacy_reference` keeps verbatim copies of the original greedy
realization, connected realization, transfer decomposition and rewiring
step. The library's rewrites must return exactly the same edge sets and
chains (and raise the same errors), exhaustively at small sizes and on
random inputs up to n = 60.

It also keeps the re-sorting Havel–Hakimi and constant reductions and the
`check` command's rendering of their traces. `degseq check --method
hh|constant` must print the same stdout and stderr and exit with the same
code, in text and JSON, with and without `--connected`: exhaustively over
non-increasing sequences with n <= 7, and on random inputs up to n = 300.
The library's `havel_hakimi_trace` and `reduce_to_constant` must return
equal traces and verdicts on the same inputs.
"""

import contextlib
import io
import itertools
import random
import sys

import hypothesis.strategies as st
from hypothesis import given, settings

import legacy_reference as legacy
from brute_partitions import partitions
from degseq.constructions import build_clique_fill, build_hub_fill, max_added_edges
from degseq.cli import main
from degseq.graphs import SimpleGraph, degree_sequence
from degseq.orders import DegreeSequence, decompose_into_basic_transfers, majorized
from degseq.realizability import (
    apply_inverse_transfer,
    erdos_gallai,
    generalized_reduce,
    havel_hakimi_trace,
    hh_reduce,
    is_c_graphical,
    realize,
    realize_connected,
    realize_via_domination,
    reduce_to_constant,
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
        for x in map(D, partitions(2 * (n - 1), n, max_part=n - 1, min_part=1)):
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


# -- `check --method hh|constant` against the re-sorting reductions ---------

CHECK_FLAGS = [
    [method, *extra]
    for method in ("hh", "constant")
    for extra in ([], ["--json"], ["--connected"], ["--json", "--connected"])
]


def cli_outcome(entry, argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entry(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_check_pinned(literal, flags, stdin=""):
    argv = ["check", literal, "--method", *flags]
    assert cli_outcome(main, argv, stdin) == cli_outcome(legacy.main, argv, stdin), argv


def test_check_traces_every_sequence_up_to_7():
    """Every non-increasing sequence with n <= 7 and entries <= n."""
    count = 0
    for n in range(1, 8):
        for combo in itertools.combinations_with_replacement(range(n, -1, -1), n):
            literal = ",".join(map(str, combo))
            for flags in CHECK_FLAGS:
                assert_check_pinned(literal, flags)
            count += 1
    assert count == 4706


def test_check_traces_unsorted_stdin_and_bad_input():
    for literal in ("3,4,3,3,1", "0,0,5,1", "1,2,3,4,5,6", "5,4,x", "", "3,-1", "7"):
        for flags in CHECK_FLAGS:
            assert_check_pinned(literal, flags)
            assert_check_pinned(literal, [*flags, "--quiet"])
    for flags in CHECK_FLAGS:
        assert_check_pinned("-", flags, stdin="4,4,3,3,2,2,1,1\n")


@st.composite
def trace_inputs(draw, max_n=300):
    """Random-graph, regular or trailing-zero sequences up to n = 300,
    sometimes with units pushed from the tail to the head, which can break
    graphicality and reach the rejecting outcomes."""
    kind = draw(st.sampled_from(("random-graph", "regular", "trailing-zero")))
    n = draw(st.integers(1, max_n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if kind == "regular":
        vals = [draw(st.integers(0, n))] * n
    else:
        p = draw(st.floats(0.0, 1.0))
        deg = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rnd.random() < p:
                    deg[u] += 1
                    deg[v] += 1
        vals = sorted(deg, reverse=True)
        if kind == "trailing-zero":
            vals += [0] * draw(st.integers(1, n))
    for _ in range(draw(st.integers(0, 3))):
        tail = max((i for i, v in enumerate(vals) if v), default=0)
        if tail:
            vals[tail] -= 1
            vals[0] += 1
            vals.sort(reverse=True)
    return ",".join(map(str, vals))


@settings(max_examples=60, deadline=None)
@given(trace_inputs(), st.sampled_from(CHECK_FLAGS))
def test_check_traces_match_on_random_inputs(literal, flags):
    assert_check_pinned(literal, flags)


def test_check_traces_match_at_n_300():
    rnd = random.Random(300)
    n = 300
    graph = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < 0.05:
                graph[u] += 1
                graph[v] += 1
    graph.sort(reverse=True)
    for vals in (graph, graph[:200] + [0] * 100, [4] * n, [299] * n, [7] * n):
        for flags in CHECK_FLAGS:
            assert_check_pinned(",".join(map(str, vals)), flags)


# -- order-keeping reductions against the re-sorting ones -------------------


def assert_reduction_pinned(fn, reference, *args):
    got = outcome(fn, *args)
    assert got == outcome(reference, *args), args
    if got[0] == "ok":
        out = got[1]
        assert type(out) is D
        assert all(a >= b for a, b in zip(out, out[1:])), (args, out)


def test_reductions_every_sequence_rank_and_count_up_to_6():
    """hh_reduce and generalized_reduce with every rank and link count,
    valid or not, on every non-increasing sequence with n <= 6."""
    for n in range(1, 7):
        for x in nonincreasing(n, n):
            assert_reduction_pinned(hh_reduce, legacy.hh_reduce, x)
            for k in range(0, n + 2):
                for links in range(0, n + 2):
                    assert_reduction_pinned(
                        generalized_reduce, legacy.generalized_reduce, x, k, links
                    )


@st.composite
def tie_block_sequences(draw, max_n=200):
    """Non-increasing sequences built around one long tie block of value v
    over positions start..end, drawn so that it straddles a chosen
    position h; the head is h when the entries allow it."""
    n = draw(st.integers(2, max_n))
    h = draw(st.integers(1, n - 1))
    v = draw(st.integers(0, h))
    start = draw(st.integers(1, h))
    end = draw(st.integers(h, n - 1))
    prefix = sorted(draw(st.lists(st.integers(v, h), min_size=start - 1, max_size=start - 1)))
    suffix = draw(st.lists(st.integers(0, v), min_size=n - 1 - end, max_size=n - 1 - end))
    head = draw(st.sampled_from((h, max([v, *prefix]), n)))
    return D([head, *prefix, *[v] * (end - start + 1), *suffix])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        tie_block_sequences(),
        st.builds(lambda v, n: D([v] * n), st.integers(0, 60), st.integers(1, 60)),
    ),
    st.data(),
)
def test_reductions_match_on_long_tie_blocks(x, data):
    n = len(x)
    assert_reduction_pinned(hh_reduce, legacy.hh_reduce, x)
    k = data.draw(st.integers(1, n), label="k")
    links = data.draw(st.integers(1, max(1, min(x[k - 1], n - 1))), label="n_links")
    assert_reduction_pinned(generalized_reduce, legacy.generalized_reduce, x, 1, links)
    assert_reduction_pinned(generalized_reduce, legacy.generalized_reduce, x, k, links)
    assert_reduction_pinned(generalized_reduce, legacy.generalized_reduce, x, 1, min(x[0], n - 1))


def random_graph_degrees(rnd, n, p):
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < p:
                deg[u] += 1
                deg[v] += 1
    return sorted(deg, reverse=True)


def threshold_degrees(dominating):
    """Degrees of the threshold graph in which vertex v joins every earlier
    vertex when dominating[v] holds and none otherwise."""
    deg = [0] * len(dominating)
    for v, joins in enumerate(dominating):
        if joins:
            for u in range(v):
                deg[u] += 1
            deg[v] = v
    return sorted(deg, reverse=True)


def test_check_traces_match_at_n_1200():
    """A 1,200-entry random-graph sequence (45 distinct values), the size of
    the largest `check --method hh` op of the benchmark, and the same with
    its 400 smallest entries replaced by a zero tail, so the `--connected`
    answer is no and the trace is printed."""
    graph = random_graph_degrees(random.Random(1200), 1200, 0.05)
    for vals in (graph, graph[:800] + [0] * 400):
        for flags in CHECK_FLAGS:
            assert_check_pinned(",".join(map(str, vals)), flags)


def test_check_traces_match_on_dense_threshold_graphs():
    """About one distinct value per entry, the most runs a sequence can have."""
    rnd = random.Random(3)
    alternating = threshold_degrees([v % 2 == 1 for v in range(300)])
    dense = threshold_degrees([rnd.random() < 0.7 for _ in range(300)])
    assert len(set(alternating)) == 299
    for vals in (alternating, dense, alternating[:-1] + [alternating[-1] + 1]):
        for flags in CHECK_FLAGS:
            assert_check_pinned(",".join(map(str, vals)), flags)


def test_check_traces_match_on_long_zero_tails():
    rnd = random.Random(4)
    graph = random_graph_degrees(rnd, 100, 0.1)
    for vals in (
        graph + [0] * 400,
        [3] * 40 + [0] * 260,
        [5, 5, 1, 1, 1] + [0] * 300,  # not enough positive entries for the head
        [1, 1] + [0] * 500,
    ):
        for flags in CHECK_FLAGS:
            assert_check_pinned(",".join(map(str, vals)), flags)


def test_check_traces_match_when_the_head_lowers_whole_runs():
    """The head h equals the total count of the runs right after it, so the
    first step lowers them whole and splits no run; the run after them is
    sometimes one below the last lowered value and merges with it."""
    rnd = random.Random(5)
    for _ in range(40):
        counts = [rnd.randint(1, 6) for _ in range(rnd.randint(1, 5))]
        h = sum(counts)
        values = sorted(rnd.sample(range(1, h + 1), len(counts)), reverse=True)
        lowered = [v for v, c in zip(values, counts) for _ in range(c)]
        below = values[-1] - 1
        tail = [rnd.choice((below, rnd.randint(0, below))) for _ in range(rnd.randint(0, 12))]
        vals = sorted([h, *lowered, *tail], reverse=True)
        for flags in CHECK_FLAGS:
            assert_check_pinned(",".join(map(str, vals)), flags)


def test_check_traces_match_when_the_head_exceeds_the_length():
    """A chain without a step: the head alone rejects, however large it is."""
    for literal in ("1000000000", "99999,1,1", "1000000000,1000000000,2", "7,1,1,1", "1,99999,2"):
        for flags in CHECK_FLAGS:
            assert_check_pinned(literal, flags)


# -- library traces against the re-sorting ones -----------------------------


def assert_traces_pinned(vals):
    x = D(vals)
    assert outcome(havel_hakimi_trace, x) == outcome(legacy.havel_hakimi_trace, x), vals
    assert outcome(reduce_to_constant, x) == outcome(legacy.reduce_to_constant, x), vals


def test_library_traces_every_sequence_up_to_7():
    """Every non-increasing sequence with n <= 7 and entries <= n."""
    count = 0
    for n in range(1, 8):
        for x in nonincreasing(n, n):
            assert_traces_pinned(x)
            count += 1
    assert count == 4706


def test_library_traces_match_on_the_large_check_inputs():
    """The inputs of the pinned `check` tests above: a 1,200-entry
    random-graph sequence with and without a zero tail, dense threshold
    sequences, long zero tails, and heads larger than the length."""
    graph = random_graph_degrees(random.Random(1200), 1200, 0.05)
    rnd = random.Random(3)
    alternating = threshold_degrees([v % 2 == 1 for v in range(300)])
    dense = threshold_degrees([rnd.random() < 0.7 for _ in range(300)])
    small = random_graph_degrees(random.Random(4), 100, 0.1)
    for vals in (
        graph,
        graph[:800] + [0] * 400,
        alternating,
        dense,
        alternating[:-1] + [alternating[-1] + 1],
        small + [0] * 400,
        [3] * 40 + [0] * 260,
        [5, 5, 1, 1, 1] + [0] * 300,
        [1, 1] + [0] * 500,
        [1000000000],
        [99999, 1, 1],
        [1000000000, 1000000000, 2],
        [7, 1, 1, 1],
    ):
        assert_traces_pinned(vals)
