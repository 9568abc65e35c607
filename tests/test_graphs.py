import itertools
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import random_graphs, small_graphs

from degseq.errors import EdgeExistsError, SelfLoopError
from degseq.graphs import (
    SimpleGraph,
    _components,
    _path,
    _thaw,
    degree_sequence,
    is_connected,
    to_dot,
    to_edge_list_text,
)
from degseq.orders import DegreeSequence
from degseq.realizability import (
    apply_inverse_transfer,
    is_c_graphical,
    realize,
    realize_connected,
    realize_via_domination,
)
from legacy_reference import EdgeMissingError, add_edge, bfs_path, find_path, remove_edge


def star(n):
    return SimpleGraph.from_edges(n, [(0, v) for v in range(1, n)])


def complete(n):
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestDegreeSequence:
    def test_mixed_graph(self, graph_43331):
        assert degree_sequence(graph_43331) == DegreeSequence((4, 3, 3, 3, 1))

    def test_edgeless(self):
        assert degree_sequence(SimpleGraph(3, frozenset())) == DegreeSequence((0, 0, 0))

    def test_complete_five(self):
        assert degree_sequence(complete(5)) == DegreeSequence((4, 4, 4, 4, 4))

    @given(small_graphs())
    def test_handshake(self, g):
        assert sum(degree_sequence(g)) == 2 * len(g.edges)

    @pytest.mark.parametrize(
        "read",
        [
            lambda g, x: degree_sequence(g),
            lambda g, x: is_connected(g),
            lambda g, x: to_edge_list_text(g),
            lambda g, x: to_dot(g),
            lambda g, x: realize_via_domination(x, g),
            lambda g, x: apply_inverse_transfer(g, 1, g.n),
        ],
        ids=["degree_sequence", "is_connected", "edge_list", "dot", "via_domination", "inverse"],
    )
    @pytest.mark.parametrize(
        "build, x",
        [
            (lambda: SimpleGraph(5, frozenset({(0, 1), (0, 2), (0, 3), (1, 2)})), (2, 2, 2, 1, 1)),
            (lambda: realize([3, 2, 2, 2, 1]), (2, 2, 2, 2, 2)),
        ],
        ids=["constructed", "realized"],
    )
    def test_library_reads_leave_the_graph_as_found(self, read, build, x):
        """Library code reads g.up, so no call caches anything on g; x is
        dominated by g's degrees."""
        g = build()
        before = dict(vars(g))
        read(g, DegreeSequence(x))
        assert vars(g) == before


class TestConnectivity:
    def test_star_connected(self):
        assert is_connected(star(5))

    def test_two_disjoint_edges(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert _components(g._adjacency) == [0, 0, 2, 2]

    def test_mixed_graph_connected(self, graph_43331):
        assert is_connected(graph_43331)

    def test_single_vertex(self):
        assert is_connected(SimpleGraph(1, frozenset()))


class TestFindPath:
    def test_star_leaf_to_leaf(self):
        assert _path(star(5)._adjacency, 1, 2) == (1, 0, 2)

    def test_adjacent(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert _path(g._adjacency, 0, 1) == (0, 1)

    def test_disconnected_raises(self):
        # no path is the empty path, not an error
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert _path(g._adjacency, 0, 3) == ()

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            _path(star(3)._adjacency, 1, 1)

    def test_every_pair_of_every_graph_up_to_6(self):
        """Adjacent ends, the two-edge search by bisection and the BFS past
        them give the plain BFS's path, on every labeled graph with n <= 6."""
        lengths = Counter()
        for n in range(2, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                adj = [[] for _ in range(n)]
                for u, v in itertools.compress(pairs, map(int, bin(mask)[:1:-1])):
                    adj[u].append(v)
                    adj[v].append(u)
                for u in range(n):
                    adj[u].sort()
                for i, j in itertools.permutations(range(n), 2):
                    path = _path(adj, i, j)
                    assert path == bfs_path(adj, i, j), (adj, i, j)
                    lengths[len(path)] += 1
        assert lengths == {0: 78_332, 2: 502_170, 3: 342_094, 4: 71_544, 5: 9_480, 6: 720}

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=40), st.randoms(use_true_random=False))
    def test_random_graphs_against_plain_bfs(self, g, rnd):
        adj = [list(nbrs) for nbrs in g._adjacency]
        for _ in range(min(g.n * (g.n - 1), 50)):
            i, j = rnd.sample(range(g.n), 2)
            assert _path(adj, i, j) == bfs_path(adj, i, j) == _path(g._adjacency, i, j)

    @pytest.mark.parametrize("i, j", [(-1, 1), (9, 1), (0, 7)])
    def test_vertex_outside_the_range_rejected(self, i, j):
        # the range check lives in the reference copy of find_path only
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="outside vertex range"):
            find_path(g, i, j)


# The immutable edits survive as reference copies in legacy_reference, which
# the pinned apply_inverse_transfer and realize_via_domination are built from.


class TestEdits:
    def test_add_then_remove_is_identity(self):
        g = SimpleGraph(2, frozenset())
        assert remove_edge(add_edge(g, 0, 1), 0, 1).edges == g.edges

    def test_add_to_k2(self):
        g = add_edge(SimpleGraph(2, frozenset()), 0, 1)
        assert g.edges == frozenset({(0, 1)})

    def test_add_self_loop(self):
        with pytest.raises(SelfLoopError):
            add_edge(SimpleGraph(2, frozenset()), 0, 0)

    def test_add_existing(self):
        with pytest.raises(EdgeExistsError):
            add_edge(star(3), 0, 1)

    def test_remove_missing(self):
        with pytest.raises(EdgeMissingError):
            remove_edge(star(3), 1, 2)

    def test_input_untouched(self):
        g = star(3)
        add_edge(g, 1, 2)
        assert g.edges == frozenset({(0, 1), (0, 2)})


class TestTextFormats:
    def test_edge_list_round_trip(self, graph_43331):
        head, *lines = to_edge_list_text(graph_43331).splitlines()
        n, m = map(int, head.split())
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert len(pairs) == m
        assert SimpleGraph.from_edges(n, pairs) == graph_43331

    def test_edge_list_layout(self):
        g = SimpleGraph.from_edges(2, [(1, 0)])
        assert to_edge_list_text(g) == "2 1\n0 1\n"

    def test_edge_list_ascending_order(self, graph_43331):
        lines = to_edge_list_text(graph_43331).splitlines()[1:]
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert pairs == sorted(pairs)

    def test_dot_output(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        assert to_dot(g) == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n}\n"


# -- edge output against the tuple sort ---------------------------------------


def sorted_edge_list_text(g):
    lines = [f"{g.n} {len(g.edges)}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def sorted_dot(g):
    lines = ["graph G {"] + [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)] + ["}"]
    return "\n".join(lines) + "\n"


def sorted_adjacency(g):
    """Each vertex's neighbors, from the edge set, by a sort per vertex."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def realizations(seq):
    seq = DegreeSequence(seq)
    yield realize(seq)
    if is_c_graphical(seq):
        yield realize_connected(seq)


class TestSortedEdges:
    """sorted_edges, read off the stored upper neighbor lists g.up, equals
    the tuple sort, the full adjacency built from g.up with no sort, cached
    or thawed as fresh lists, equals a sort of the edge set's, and the text
    formats are unchanged."""

    @staticmethod
    def assert_unchanged(g):
        assert g.sorted_edges() == sorted(g.edges)
        adj = sorted_adjacency(g)
        thawed = _thaw(g)
        assert thawed == list(map(list, adj))
        for nbrs in thawed:  # the lists are g's to lend, not its own
            nbrs.append(g.n)
        assert _thaw(g) == list(map(list, adj))
        assert g._adjacency == adj
        assert g.up == tuple(tuple(v for v in nbrs if v > u) for u, nbrs in enumerate(adj))
        assert to_edge_list_text(g) == sorted_edge_list_text(g)
        assert to_dot(g) == sorted_dot(g)

    @settings(max_examples=80, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, g):
        self.assert_unchanged(g)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_realizations_of_random_graph_degrees(self, g):
        for h in realizations(degree_sequence(g)):
            self.assert_unchanged(h)

    @pytest.mark.parametrize("seq", [[40] * 400, [1, 1], [0]], ids=["40-regular-400", "edge", "n1"])
    def test_fixed_realizations(self, seq):
        for h in realizations(seq):
            self.assert_unchanged(h)


# -- union-find connectivity against networkx ---------------------------------


@st.composite
def random_forests(draw, max_n: int = 80) -> SimpleGraph:
    """Each vertex v > 0 joined to one earlier vertex with probability p."""
    n = draw(st.integers(1, max_n))
    p = draw(st.floats(0.0, 1.0))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return SimpleGraph.from_edges(
        n, [(rnd.randrange(v), v) for v in range(1, n) if rnd.random() < p]
    )


class TestComponents:
    """`_components` gives each vertex the smallest vertex of its networkx
    component as its root, on full adjacency and on upper-neighbour
    tuples."""

    def assert_matches(self, g):
        nx = pytest.importorskip("networkx")
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        roots = [min(nx.node_connected_component(G, v)) for v in range(g.n)]
        assert g._adjacency == sorted_adjacency(g)
        assert _components(g._adjacency) == roots
        assert _components(g.up) == roots
        assert is_connected(g) == nx.is_connected(G)

    @settings(max_examples=120, deadline=None)
    @given(random_graphs())
    def test_random_graphs(self, g):
        self.assert_matches(g)

    @settings(max_examples=60, deadline=None)
    @given(random_forests())
    def test_forests(self, g):
        self.assert_matches(g)

    def test_two_triangles_and_a_path(self):
        # cycles 0-1-2 and 4-5-6 joined by the bridges (2, 3), (3, 4)
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (7, 8)]
        g = SimpleGraph.from_edges(9, edges)
        assert _components(g._adjacency) == [0] * 7 + [7, 7]
        self.assert_matches(g)
