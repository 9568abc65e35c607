from itertools import combinations

import pytest

from degseq import constructions
from degseq.cli import main
from degseq.constructions import (
    build_clique_fill,
    build_hub_fill,
    clique_fill_sequence,
    hub_fill_sequence,
    incomplete_star,
    max_added_edges,
)
from degseq.errors import InternalInconsistencyError, OutOfRangeError
from degseq.graphs import degree_sequence, is_connected
from degseq.orders import DegreeSequence, majorized
from degseq.realizability import erdos_gallai

D = DegreeSequence


class TestHubFillSplit:
    """The split of d into full rounds plus a partial round, read off
    hub_fill_sequence: i vertices at full degree n-1, then i+j, then j
    copies of i+1, then copies of i."""

    def test_small_case(self):
        # two full vertices, no partial round
        assert hub_fill_sequence(5, 3) == D((4, 4, 2, 2, 2))

    def test_zero_is_star(self):
        assert hub_fill_sequence(9, 0) == D((8,) + (1,) * 8)

    def test_top_value_is_complete(self):
        assert hub_fill_sequence(5, 6) == D((4,) * 5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            hub_fill_sequence(5, 7)
        with pytest.raises(OutOfRangeError):
            hub_fill_sequence(5, -1)
        with pytest.raises(OutOfRangeError):
            hub_fill_sequence(1, 0)

    def test_round_structure_everywhere(self):
        for n in range(2, 10):
            for d in range(0, max_added_edges(n) + 1):
                # round k >= 2 adds n - k edges; i rounds are complete
                rounds = [sum(n - k for k in range(2, i + 1)) for i in range(1, n)]
                i = max(i for i, used in enumerate(rounds, start=1) if used <= d)
                j = d - rounds[i - 1]
                if d < max_added_edges(n):
                    assert 0 <= j <= n - i - 2
                else:
                    assert (i, j) == (n - 1, 0)
                expected = [n - 1] * i + [i + j] + [i + 1] * j + [i] * (n - i - j - 1)
                assert hub_fill_sequence(n, d) == D(expected)


class TestHubFillSequence:
    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (5, 3, (4, 4, 2, 2, 2)),
            (5, 0, (4, 1, 1, 1, 1)),
            (5, 6, (4, 4, 4, 4, 4)),
            (7, 5, (6, 6, 2, 2, 2, 2, 2)),
            (5, 2, (4, 3, 2, 2, 1)),
        ],
    )
    def test_known_values(self, n, d, expected):
        assert hub_fill_sequence(n, d) == D(expected)

    def test_one_extra_edge_shape(self):
        for n in range(4, 10):
            assert hub_fill_sequence(n, 1) == D((n - 1, 2, 2) + (1,) * (n - 3))

    def test_sum_law(self):
        for n in range(2, 10):
            for d in range(0, max_added_edges(n) + 1):
                assert sum(hub_fill_sequence(n, d)) == 2 * (n - 1) + 2 * d


class TestBuildHubFill:
    def test_star(self):
        g = build_hub_fill(6, 0)
        assert degree_sequence(g) == D((5, 1, 1, 1, 1, 1))

    def test_complete(self):
        n = 6
        g = build_hub_fill(n, max_added_edges(n))
        assert len(g.edges) == n * (n - 1) // 2

    def test_two_extra_edges(self):
        assert degree_sequence(build_hub_fill(5, 2)) == D((4, 3, 2, 2, 1))

    def test_matches_formula_everywhere(self):
        for n in range(2, 10):
            for d in range(0, max_added_edges(n) + 1):
                g = build_hub_fill(n, d)
                assert degree_sequence(g) == hub_fill_sequence(n, d), (n, d)
                assert is_connected(g)


def _star(n):
    return {(0, v) for v in range(1, n)}


class TestConstructionEdges:
    """The exact edge sets that `construct --emit graph` prints."""

    def test_hub_fill_five_four(self):
        assert build_hub_fill(5, 4).edges == _star(5) | {(1, 2), (1, 3), (1, 4), (2, 3)}

    def test_clique_fill_seven_four(self):
        assert build_clique_fill(7, 4).edges == _star(7) | {(1, 2), (1, 3), (2, 3), (1, 4)}

    @pytest.mark.parametrize("build", [build_hub_fill, build_clique_fill])
    def test_zero_is_star(self, build):
        for n in range(2, 10):
            assert build(n, 0).edges == _star(n), n

    @pytest.mark.parametrize("build", [build_hub_fill, build_clique_fill])
    def test_top_is_complete(self, build):
        for n in range(2, 10):
            complete = {(u, v) for u in range(n) for v in range(u + 1, n)}
            assert build(n, max_added_edges(n)).edges == complete, n

    @pytest.mark.parametrize(
        "build, key",
        [(build_hub_fill, None), (build_clique_fill, lambda e: (e[1], e[0]))],
        ids=["hub", "clique"],
    )
    def test_first_d_leaf_pairs(self, build, key):
        """The star plus the first d leaf pairs in the family's order:
        lexicographic for the hub fill, larger end first for the clique fill."""
        for n in range(2, 11):
            pairs = sorted(combinations(range(1, n), 2), key=key)
            for d in range(0, max_added_edges(n) + 1):
                assert build(n, d).edges == _star(n) | set(pairs[:d]), (n, d)


class TestClosedFormIsChecked:
    """The built lists are checked against the closed-form sequence on every
    call, so a formula that disagrees with the graph raises, in the library
    and in `construct` (exit 3), even when its total is right."""

    @pytest.mark.parametrize(
        "name, build, wrong",
        [
            ("hub_fill_sequence", build_hub_fill, (6, 4, 3, 2, 2, 2, 1)),  # really 6,5,2,2,2,2,1
            ("clique_fill_sequence", build_clique_fill, (6, 4, 3, 3, 2, 2, 0)),  # 6,4,3,3,2,1,1
        ],
        ids=["hub", "clique"],
    )
    def test_wrong_closed_form_raises(self, monkeypatch, capsys, name, build, wrong):
        assert sum(getattr(constructions, name)(7, 4)) == sum(wrong)
        monkeypatch.setattr(constructions, name, lambda n, d: D(wrong))
        with pytest.raises(InternalInconsistencyError, match="wrong degrees"):
            build(7, 4)
        prime = ["--prime"] if build is build_clique_fill else []
        assert main(["construct", "7", "4", "--emit", "graph", *prime]) == 3
        assert capsys.readouterr().out == ""


class TestCliqueFillSequence:
    @pytest.mark.parametrize(
        "n,d,tail",
        [
            (7, 3, (6, 3, 3, 3, 1, 1, 1)),
            (7, 5, (6, 4, 4, 3, 3, 1, 1)),
            (7, 6, (6, 4, 4, 4, 4, 1, 1)),
            (7, 4, (6, 4, 3, 3, 2, 1, 1)),
        ],
    )
    def test_known_values(self, n, d, tail):
        assert clique_fill_sequence(n, d) == D(tail)

    def test_agrees_with_hub_fill_up_to_two(self):
        for n in range(2, 10):
            for d in range(0, min(2, max_added_edges(n)) + 1):
                assert clique_fill_sequence(n, d) == hub_fill_sequence(n, d)

    def test_matches_built_graph_everywhere(self):
        for n in range(2, 10):
            for d in range(0, max_added_edges(n) + 1):
                g = build_clique_fill(n, d)
                assert degree_sequence(g) == clique_fill_sequence(n, d), (n, d)
                assert is_connected(g)

    def test_sum_law(self):
        for n in range(2, 10):
            for d in range(0, max_added_edges(n) + 1):
                assert sum(clique_fill_sequence(n, d)) == 2 * (n - 1) + 2 * d


class TestIncompleteStar:
    def test_two_missing(self):
        seq, g = incomplete_star(5, -2)
        assert seq == D((2, 1, 1, 0, 0))
        assert degree_sequence(g) == seq

    def test_one_missing(self):
        seq, _ = incomplete_star(5, -1)
        assert seq == D((3, 1, 1, 1, 0))

    def test_fully_missing_is_edgeless(self):
        seq, g = incomplete_star(5, -4)
        assert seq == D((0, 0, 0, 0, 0))
        assert not g.edges

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            incomplete_star(5, 0)
        with pytest.raises(OutOfRangeError):
            incomplete_star(5, -5)
        with pytest.raises(OutOfRangeError, match="at least 2 vertices"):
            incomplete_star(1, -1)

    def test_sum_law_negative_side(self):
        for n in range(2, 10):
            for d in range(-(n - 1), 0):
                seq, g = incomplete_star(n, d)
                assert sum(seq) == 2 * (n - 1) + 2 * d
                assert degree_sequence(g) == seq


class TestFamiliesAreExtremalWitnesses:
    def test_every_level_is_realized_connected(self):
        # the family graph itself witnesses that each (n, d) level is
        # non-empty
        for n in range(2, 10):
            for d in range(0, max_added_edges(n) + 1):
                g = build_hub_fill(n, d)
                assert is_connected(g)
                assert len(g.edges) == n - 1 + d

    def test_family_members_are_graphical(self):
        for n in range(2, 9):
            for d in range(0, max_added_edges(n) + 1):
                assert erdos_gallai(hub_fill_sequence(n, d))
                assert erdos_gallai(clique_fill_sequence(n, d))

    def test_families_incomparable_from_three_on(self):
        for n in range(6, 9):
            for d in range(3, min(6, max_added_edges(n)) + 1):
                a, b = hub_fill_sequence(n, d), clique_fill_sequence(n, d)
                assert not majorized(a, b) and not majorized(b, a), (n, d)
