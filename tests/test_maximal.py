import collections
import functools
import itertools

import pytest

import degseq.maximal as mx
import legacy_reference as legacy
from brute_partitions import partitions
from degseq.constructions import (
    clique_fill_sequence,
    hub_fill_sequence,
    incomplete_star,
    max_added_edges,
)
from degseq.errors import (
    BadSumError,
    InternalInconsistencyError,
    OracleMismatchError,
    OutOfRangeError,
)
from degseq.graphs import is_connected
from degseq.maximal import (
    MaximalSetReport,
    enumerate_connected_sequences,
    is_c_graphical_poset,
    maximal_elements,
)
from degseq.orders import DegreeSequence, majorized
from degseq.realizability import erdos_gallai, is_c_graphical, realize_connected

D = DegreeSequence


class TestEnumeration:
    def test_tree_level(self):
        seqs = enumerate_connected_sequences(5, 0)
        assert seqs == frozenset(
            {D((4, 1, 1, 1, 1)), D((3, 2, 1, 1, 1)), D((2, 2, 2, 1, 1))}
        )

    def test_contains_both_families(self):
        seqs = enumerate_connected_sequences(5, 3)
        assert D((4, 3, 3, 3, 1)) in seqs
        assert D((4, 4, 2, 2, 2)) in seqs

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            enumerate_connected_sequences(5, 7)
        with pytest.raises(OutOfRangeError):
            enumerate_connected_sequences(99, 0)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="oracle must be one of"):
            enumerate_connected_sequences(5, 1, "bogus")

    def test_oracles_agree_small(self):
        for n in range(2, 7):
            for d in range(0, max_added_edges(n) + 1):
                enumerate_connected_sequences(n, d, oracle="both")

    def test_mismatch_is_fatal(self, monkeypatch):
        def broken(n, d):
            return frozenset({D((1, 1))})

        monkeypatch.setattr(mx, "_sequences_by_partitions", broken)
        with pytest.raises(OracleMismatchError):
            enumerate_connected_sequences(4, 1, oracle="both")


class TestGraphsOracleAgainstAtlas:
    def test_matches_networkx_atlas(self):
        # the atlas lists every graph on up to 7 nodes, one per isomorphism class
        nx = pytest.importorskip("networkx")
        expected = collections.defaultdict(set)
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n >= 2 and nx.is_connected(g):
                expected[n, g.number_of_edges() - (n - 1)].add(D(k for _, k in g.degree()))
        for n in range(2, 8):
            for d in range(0, max_added_edges(n) + 1):
                assert mx._sequences_by_graphs(n, d) == frozenset(expected[n, d]), (n, d)

    def test_matches_unmemoized_search(self):
        for n in range(2, 8):
            for d in range(0, max_added_edges(n) + 1):
                assert mx._sequences_by_graphs(n, d) == legacy.sequences_by_graphs(n, d), (n, d)

    def test_matches_partitions_at_every_level_of_eight(self):
        for d in range(0, max_added_edges(8) + 1):
            assert mx._sequences_by_graphs(8, d) == mx._sequences_by_partitions(8, d), d

    def test_matches_partitions_at_nine_three(self):
        assert mx._sequences_by_graphs(9, 3) == mx._sequences_by_partitions(9, 3)

    def test_never_consults_erdos_gallai(self, monkeypatch):
        def forbidden(seq):
            raise AssertionError("graphs oracle called erdos_gallai")

        levels = range(0, max_added_edges(6) + 1)
        expected = [mx._sequences_by_partitions(6, d) for d in levels]
        monkeypatch.setattr(mx, "erdos_gallai_violation", forbidden)
        assert [mx._sequences_by_graphs.__wrapped__(6, d) for d in levels] == expected


def _pairwise_maximal(seqs):
    return frozenset(s for s in seqs if not any(majorized(s, t) and s != t for t in seqs))


class TestMaximalFilter:
    def test_graphs_images_match_pairwise_definition(self):
        for n in range(2, 8):
            for d in range(0, max_added_edges(n) + 1):
                report = maximal_elements(n, d, "graphs")
                assert report.maximal == _pairwise_maximal(report.all_sequences), (n, d)

    def test_partitions_images_match_pairwise_definition(self):
        for n in range(2, 11):
            for d in range(0, max_added_edges(n) + 1):
                report = maximal_elements(n, d, "partitions")
                assert report.maximal == _pairwise_maximal(report.all_sequences), (n, d)


class TestThresholdSequences:
    def test_match_networkx_creation_sequences(self):
        # a connected threshold graph is a creation sequence ending in a
        # dominating vertex; the first vertex's symbol makes no difference
        threshold = pytest.importorskip("networkx.algorithms.threshold")
        for n in range(2, 13):
            expected = collections.defaultdict(set)
            for head in itertools.product("di", repeat=n - 1):
                deg = threshold.degree_sequence([*head, "d"])
                expected[sum(deg) // 2 - (n - 1)].add(D(deg))
            assert set(expected) == set(range(max_added_edges(n) + 1)), n
            for d, seqs in expected.items():
                got = mx._threshold_sequences(n, d)
                assert len(got) == len(seqs) and set(got) == seqs, (n, d)


class TestPartitionsOracle:
    def test_matches_unpruned_reference(self):
        for n in range(2, 12):
            for d in range(0, max_added_edges(n) + 1):
                total = 2 * (n - 1) + 2 * d
                reference = {
                    D(p)
                    for p in partitions(total, n, max_part=n - 1, min_part=1)
                    if erdos_gallai(D(p))
                }
                assert mx._sequences_by_partitions(n, d) == reference, (n, d)


@pytest.fixture
def fresh_maximal_cache(monkeypatch):
    """A private cache for the maximal sets, so every call below is cold."""
    monkeypatch.setattr(mx, "_maximal_subset", functools.lru_cache(mx._maximal_subset.__wrapped__))


class TestMaximalGuards:
    def test_generated_sequence_missing_from_image(self, monkeypatch, fresh_maximal_cache):
        image = mx._sequences_by_partitions(7, 5)
        monkeypatch.setattr(
            mx, "_sequences_by_partitions", lambda n, d: image - {hub_fill_sequence(7, 5)}
        )
        with pytest.raises(InternalInconsistencyError, match="not in the image"):
            maximal_elements(7, 5, "partitions")

    def test_comparable_generated_sequences(self, monkeypatch, fresh_maximal_cache):
        below_hub = D((6, 5, 3, 2, 2, 2, 2))
        assert below_hub in mx._sequences_by_partitions(7, 5)
        generate = mx._threshold_sequences
        monkeypatch.setattr(mx, "_threshold_sequences", lambda n, d: generate(n, d) + [below_hub])
        with pytest.raises(InternalInconsistencyError, match="comparable"):
            maximal_elements(7, 5, "partitions")

    def test_undominated_image_sequence(self, monkeypatch, fresh_maximal_cache):
        generate = mx._threshold_sequences
        monkeypatch.setattr(mx, "_threshold_sequences", lambda n, d: generate(n, d)[1:])
        with pytest.raises(InternalInconsistencyError, match="not dominated"):
            maximal_elements(7, 5, "partitions")

    def test_seven_queries_on_one_key_generate_and_check_once(
        self, monkeypatch, fresh_maximal_cache
    ):
        calls = collections.Counter()

        def spy(name):
            original = getattr(mx, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(mx, name, counted)

        spy("_threshold_sequences")
        spy("_verified_maximal")
        queries = sorted(mx._sequences_by_partitions(8, 5), reverse=True)[:7]
        assert all(is_c_graphical_poset(x, "partitions") for x in queries)
        assert calls == {"_threshold_sequences": 1, "_verified_maximal": 1}


class TestMaximalElements:
    def test_tree_level_star_only(self):
        report = maximal_elements(5, 0)
        assert report.maximal == frozenset({D((4, 1, 1, 1, 1))})

    def test_two_maximal_at_three(self):
        report = maximal_elements(5, 3)
        assert report.maximal == frozenset({D((4, 4, 2, 2, 2)), D((4, 3, 3, 3, 1))})

    def test_strictly_larger_at_five_on_seven(self):
        report = maximal_elements(7, 5)
        pair = {hub_fill_sequence(7, 5), clique_fill_sequence(7, 5)}
        assert pair < report.maximal
        assert D((6, 5, 3, 3, 2, 2, 1)) in report.maximal

    def test_every_sequence_dominated_by_a_maximal(self):
        for d in range(0, 7):
            report = maximal_elements(6, d)
            for s in report.all_sequences:
                assert any(majorized(s, m) for m in report.maximal)

    def test_filter_runs_once_per_key(self):
        first = maximal_elements(6, 4, "partitions")
        again = maximal_elements(6, 4, "partitions", max_n=6)
        assert again.maximal is first.maximal
        assert maximal_elements(6, 4, "graphs").maximal == first.maximal

    def test_report_round_trip(self):
        report = maximal_elements(5, 2)
        assert MaximalSetReport.from_dict(report.to_dict()) == report

    def test_format_text(self):
        text = maximal_elements(5, 3).format_text()
        lines = text.splitlines()
        assert lines[0].startswith("n=5 d=3")
        assert lines[1:] == ["4,4,2,2,2", "4,3,3,3,1"]


class TestPosetCGraphicality:
    def test_self_maximal(self):
        assert is_c_graphical_poset(D((4, 3, 3, 3, 1)))

    def test_total_too_small(self):
        assert not is_c_graphical_poset(D((2, 1, 1, 1, 1)))

    def test_star_always(self):
        for n in range(2, 8):
            assert is_c_graphical_poset(D((n - 1,) + (1,) * (n - 1)))

    def test_odd_total_rejected(self):
        with pytest.raises(BadSumError):
            is_c_graphical_poset(D((2, 1)))

    def test_zero_entry_rejected(self):
        with pytest.raises(BadSumError):
            is_c_graphical_poset(D((2, 1, 1, 0)))

    def test_agrees_with_operational_test(self):
        # ground truth for the criterion used by realize_connected
        for n in range(2, 7):
            for combo in itertools.combinations_with_replacement(
                range(n - 1, 0, -1), n
            ):
                seq = D(combo)
                if sum(seq) % 2:
                    continue
                assert is_c_graphical_poset(seq) == is_c_graphical(seq), seq


class TestHeadsFull:
    def test_small_sweep(self):
        for n in range(2, 7):
            for d in range(0, max_added_edges(n) + 1):
                assert all(s[0] == n - 1 for s in maximal_elements(n, d).maximal), (n, d)


class TestCatalog:
    """The maximal sets against the two star families at n = 6: one element
    per partition of d into distinct parts of at most 4, so the hub fill
    alone for d <= 2, the hub and clique fills for d = 3, 4, and at d = 5
    the hub fill {1,4} and the clique fill {2,3} (the part 5 is too large)."""

    def test_exact_families_small(self):
        for d in range(0, 6):
            expected = {hub_fill_sequence(6, d)}
            if d >= 3:
                expected.add(clique_fill_sequence(6, d))
            assert maximal_elements(6, d).maximal == expected, d

    def test_catalog_values_at_six(self):
        assert maximal_elements(6, 1).sorted_maximal() == [D((5, 2, 2, 1, 1, 1))]
        assert maximal_elements(6, 4).sorted_maximal() == [
            D((5, 5, 2, 2, 2, 2)),
            D((5, 4, 3, 3, 2, 1)),
        ]


class TestDominationClosure:
    def test_dominated_by_any_maximal_is_realized(self):
        # closure under domination holds below every maximal element, not
        # just below the hub fill
        for n in range(3, 7):
            for d in range(0, max_added_edges(n) + 1):
                report = maximal_elements(n, d)
                total = 2 * (n - 1) + 2 * d
                for part in partitions(total, n, max_part=n - 1, min_part=1):
                    seq = D(part)
                    if any(majorized(seq, top) for top in report.maximal):
                        assert seq in report.all_sequences, (n, d, seq)

    def test_dominated_by_hub_fill_is_c_graphical(self):
        # every positive equal-sum sequence below the hub fill appears in
        # the enumerated image
        for n in range(3, 7):
            for d in range(0, max_added_edges(n) + 1):
                top = hub_fill_sequence(n, d)
                image = enumerate_connected_sequences(n, d)
                for part in partitions(sum(top), n, max_part=n - 1, min_part=1):
                    seq = D(part)
                    if majorized(seq, top):
                        assert seq in image, (n, d, seq)

    def test_strict_dominators_of_hub_fill_not_graphical(self):
        for n in range(3, 7):
            for d in range(0, max_added_edges(n) + 1):
                bottom = hub_fill_sequence(n, d)
                image = enumerate_connected_sequences(n, d)
                for part in partitions(sum(bottom), n, max_part=n - 1, min_part=1):
                    seq = D(part)
                    if majorized(bottom, seq) and seq != bottom:
                        assert seq not in image, (n, d, seq)
                        assert not erdos_gallai(seq), (n, d, seq)


class TestTreeLevel:
    def test_all_positive_tree_totals_realize_as_trees(self):
        for n in range(2, 8):
            image = enumerate_connected_sequences(n, 0)
            expected = {
                D(p) for p in partitions(2 * (n - 1), n, max_part=n - 1, min_part=1)
            }
            assert image == expected
            for seq in image:
                g = realize_connected(seq)
                assert is_connected(g) and len(g.edges) == n - 1


class TestDeficitLevels:
    def test_dominated_by_incomplete_star_is_graphical(self):
        for n in range(2, 8):
            for d in range(-(n - 1), 0):
                top, _ = incomplete_star(n, d)
                total = sum(top)
                for combo in itertools.combinations_with_replacement(
                    range(n - 1, -1, -1), n
                ):
                    seq = D(combo)
                    if sum(seq) == total and majorized(seq, top):
                        assert erdos_gallai(seq), (n, d, seq)
