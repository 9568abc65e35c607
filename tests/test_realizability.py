import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from brute_partitions import partitions
from conftest import small_graphs

from degseq.errors import (
    BadCountError,
    BadRankError,
    BadSumError,
    HeadTooLargeError,
    InternalInconsistencyError,
    NotCGraphicalError,
    NotGraphicalError,
    PreconditionViolatedError,
    UnderflowError,
)
from degseq import realizability
from degseq.cli import main
from degseq.graphs import SimpleGraph, degree_sequence, is_connected
from degseq.orders import DegreeSequence, decompose_into_basic_transfers, min_tail_sum
from degseq.realizability import (
    Verdict,
    apply_inverse_transfer,
    erdos_gallai,
    erdos_gallai_violation,
    generalized_reduce,
    havel_hakimi,
    havel_hakimi_trace,
    hh_reduce,
    is_c_graphical,
    non_graphical_certificate,
    realize,
    realize_connected,
    realize_via_domination,
    reduce_to_constant,
)

D = DegreeSequence


def all_nonincreasing(length, max_value):
    for combo in itertools.combinations_with_replacement(range(max_value, -1, -1), length):
        yield D(combo)


def star(n):
    return SimpleGraph.from_edges(n, [(0, v) for v in range(1, n)])


class TestErdosGallai:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ((5, 4, 4, 3, 3, 3), True),
            ((5, 3, 3, 2, 1), False),
            ((4, 4, 4, 1, 1), False),
            ((3, 1, 1), False),  # odd total
            ((0, 0, 0), True),
            ((4, 4, 2, 1, 1), False),
            ((2, 1, 1, 1, 1), True),
        ],
    )
    def test_known_cases(self, seq, expected):
        assert erdos_gallai(D(seq)) is expected


def violation_reference(x):
    """Quadratic Erdős–Gallai scan, straight from the definition."""
    prefix = 0
    for k in range(1, len(x) + 1):
        prefix += x[k - 1]
        rhs = k * (k - 1) + min_tail_sum(x, k)
        if prefix > rhs:
            return k, prefix, rhs
    return None


@st.composite
def eg_sequences(draw, max_n=300):
    """Uniform sequences, or threshold-graph degrees moved by a few units.

    A threshold graph's degrees meet the inequalities with equality up to
    the Durfee index, so one unit moved up breaks them at a k near the
    receiving rank, while a unit moved down keeps the sequence graphical.
    """
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        hi = draw(st.integers(0, n))
        return D(draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)))
    dominating = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    deg = [0] * n
    later = 0
    for v in range(n - 1, -1, -1):
        deg[v] = (v if dominating[v] else 0) + later
        later += dominating[v]
    for _ in range(draw(st.integers(0, 3))):
        deg.sort(reverse=True)
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        if draw(st.booleans()):
            i, j = j, i
        if deg[j] > 0:
            deg[i] += 1
            deg[j] -= 1
    return D(deg)


class TestErdosGallaiViolation:
    def test_exhaustive_against_definition(self):
        for n in range(1, 9):
            for x in all_nonincreasing(n, n):
                found = erdos_gallai_violation(x)
                assert found == violation_reference(x), x
                stop = n if found is None else found[0] - 1
                prefix = 0
                for k in range(1, stop + 1):
                    prefix += x[k - 1]
                    assert prefix <= k * (k - 1) + min_tail_sum(x, k), (x, k)
                assert erdos_gallai(x) is (sum(x) % 2 == 0 and found is None)

    @settings(max_examples=150, deadline=None)
    @given(eg_sequences())
    def test_matches_definition_up_to_300(self, x):
        assert erdos_gallai_violation(x) == violation_reference(x)

    def test_known_violations(self):
        assert erdos_gallai_violation(D((1, 1, 1))) is None  # odd total only
        assert erdos_gallai_violation(D((4, 4, 4, 1, 1))) == (2, 8, 6)
        assert erdos_gallai_violation(D((3, 3, 3, 1))) == (2, 6, 5)
        assert erdos_gallai_violation(D((3, 1, 1))) == (1, 3, 2)
        assert erdos_gallai_violation(D((0,))) is None

    @settings(max_examples=150, deadline=None)
    @given(eg_sequences(max_n=60))
    def test_against_networkx(self, x):
        nx = pytest.importorskip("networkx")
        assert erdos_gallai(x) is nx.is_valid_degree_sequence_erdos_gallai(list(x))

    def test_n_100000(self):
        n = 100_000
        regular = D([4] * n)
        assert erdos_gallai_violation(regular) is None
        pushed = D([5] + [4] * (n - 2) + [3])
        assert erdos_gallai_violation(pushed) is None
        assert erdos_gallai(pushed)
        # K_{m+1} less one unit, padded with isolated vertices: every k < m
        # holds with equality, and k = m fails by one.
        m = 1000
        x = D([m] * m + [m - 1] + [0] * (n - m - 1))
        assert erdos_gallai_violation(x) == (m, m * m, m * m - 1)


class TestHeadReduction:
    def test_chain_start(self):
        assert hh_reduce(D((5, 4, 4, 3, 3, 3))) == D((3, 3, 2, 2, 2))

    def test_chain_middle(self):
        assert hh_reduce(D((2, 2, 1, 1))) == D((1, 1, 0))

    def test_pair(self):
        assert hh_reduce(D((1, 1))) == D((0,))

    def test_head_too_large(self):
        with pytest.raises(HeadTooLargeError):
            hh_reduce(D((3, 1, 1)))

    def test_underflow(self):
        with pytest.raises(UnderflowError):
            hh_reduce(D((2, 1, 0)))

    def test_single_entry(self):
        with pytest.raises(ValueError):
            hh_reduce(D((0,)))


class TestHavelHakimi:
    def test_full_worked_chain(self):
        ok, trace = havel_hakimi_trace(D((5, 4, 4, 3, 3, 3)))
        assert ok
        chain = [tuple(s.after) for s in trace.steps]
        assert chain == [(3, 3, 2, 2, 2), (2, 2, 1, 1), (1, 1, 0), (0, 0)]
        assert trace.outcome == "all-zero"

    def test_not_graphical(self):
        assert not havel_hakimi(D((4, 4, 3, 2, 1)))

    def test_edgeless(self):
        assert havel_hakimi(D((0, 0, 0)))

    def test_agrees_with_inequalities_exhaustively(self):
        for n in range(1, 7):
            for seq in all_nonincreasing(n, n - 1):
                assert havel_hakimi(seq) == erdos_gallai(seq), seq

    def test_agrees_on_oversized_entries(self):
        for n in range(1, 8):
            for seq in all_nonincreasing(n, 7):
                assert havel_hakimi(seq) == erdos_gallai(seq), seq

    def test_4_regular_100000(self):
        """The verdict keeps no step, so a chain of 80,000 steps over
        10^5 entries needs O(distinct values) memory, not Θ(n²)."""
        x = D([4] * 100_000)
        assert havel_hakimi(x) is True
        assert havel_hakimi(x) == erdos_gallai(x)
        pushed = D([5] + [4] * 99_998 + [3])
        assert havel_hakimi(pushed) == erdos_gallai(pushed)
        lonely = D([5] + [1] * 3 + [0] * 99_996)
        assert havel_hakimi(lonely) is False and erdos_gallai(lonely) is False


class TestGeneralizedReduce:
    def test_head_reduction_by_two(self):
        assert generalized_reduce(D((5, 4, 4, 3, 3, 3)), 1, 2) == D((3, 3, 3, 3, 3, 3))

    def test_interior_rank(self):
        assert generalized_reduce(D((2, 2, 2, 1, 1)), 3, 1) == D((2, 1, 1, 1, 1))

    def test_full_head_matches_hh_plus_zero(self):
        x = D((3, 2, 2, 1))
        reduced = generalized_reduce(x, 1, x[0])
        assert reduced == D(tuple(hh_reduce(x)) + (0,))

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            generalized_reduce(D((2, 1, 1)), 4, 1)

    def test_bad_count(self):
        with pytest.raises(BadCountError):
            generalized_reduce(D((2, 1, 1)), 2, 2)

    def test_count_capped_by_length(self):
        # n_links=4 is within the head value 5 but exceeds the 2 other entries
        with pytest.raises(BadCountError):
            generalized_reduce(D((5, 1, 1)), 1, 4)

    def test_underflow(self):
        with pytest.raises(UnderflowError):
            generalized_reduce(D((2, 1, 0)), 1, 2)

    def test_preserves_graphicality_exhaustively(self):
        for n in range(2, 7):
            for seq in all_nonincreasing(n, n - 1):
                if not erdos_gallai(seq):
                    continue
                for k in range(1, n + 1):
                    for links in range(1, min(seq[k - 1], n - 1) + 1):
                        try:
                            reduced = generalized_reduce(seq, k, links)
                        except UnderflowError:
                            # fewer positive partners than links: not graphical,
                            # contradicting the outer filter
                            pytest.fail(f"underflow on graphical {seq} k={k} n={links}")
                        assert erdos_gallai(reduced), (seq, k, links)

    def test_reconstruction_direction(self):
        # adding the removed links back to a realization of the reduced
        # sequence recovers a realization of the original
        for seq in all_nonincreasing(5, 4):
            if not erdos_gallai(seq) or seq[0] == 0:
                continue
            reduced = generalized_reduce(seq, 1, seq[0])
            assert erdos_gallai(reduced)
            g = realize(reduced)
            assert degree_sequence(g) == reduced

    def test_partial_reduction_is_one_way(self):
        # the reverse direction of a partial head reduction fails: this
        # reduced sequence is graphical while the original is not
        original = D((3, 3, 3, 1))
        reduced = generalized_reduce(original, 1, 2)
        assert reduced == D((2, 2, 1, 1))
        assert erdos_gallai(reduced)
        assert not erdos_gallai(original)

    def test_blocked_reconstruction_for_non_graphical(self):
        # when x is not graphical but its reduction is, no way of adding
        # the removed links back to a realization of the reduced sequence
        # can reproduce x's degrees without a parallel edge
        for seq in all_nonincreasing(5, 4):
            if sum(seq) % 2 or erdos_gallai(seq) or seq[0] == 0:
                continue
            for links in range(1, min(seq[0], len(seq) - 1) + 1):
                try:
                    reduced = generalized_reduce(seq, 1, links)
                except UnderflowError:
                    continue
                if not erdos_gallai(reduced):
                    continue
                g = realize(reduced)
                n = g.n
                target = sorted(seq, reverse=True)
                blocked = True
                for u in range(n):
                    pool = [v for v in range(n) if v != u and (min(u, v), max(u, v)) not in g.edges]
                    for subset in itertools.combinations(pool, links):
                        degs = [g.degree(v) for v in range(n)]
                        degs[u] += links
                        for v in subset:
                            degs[v] += 1
                        if sorted(degs, reverse=True) == target:
                            blocked = False
                assert blocked, (seq, links)


class TestReduceToConstant:
    def test_one_step_finish(self):
        verdict = reduce_to_constant(D((5, 4, 4, 3, 3, 3)))
        assert verdict.graphical
        assert len(verdict.certificate.steps) == 1
        assert verdict.certificate.steps[0].after == D((3, 3, 3, 3, 3, 3))

    def test_already_constant_even(self):
        verdict = reduce_to_constant(D((2, 2, 2)))
        assert verdict.graphical
        assert verdict.certificate.steps == ()

    def test_already_constant_odd_product(self):
        verdict = reduce_to_constant(D((3, 3, 3)))
        assert not verdict.graphical

    def test_agrees_with_inequalities(self):
        for n in range(1, 7):
            for seq in all_nonincreasing(n, n - 1):
                assert reduce_to_constant(seq).graphical == erdos_gallai(seq), seq

    def test_graphical_inputs_accepted_by_the_rules_alone(self):
        # forward soundness: a graphical input is never rejected and never
        # needs the exact-inequality override
        for n in range(1, 7):
            for seq in all_nonincreasing(n, n - 1):
                if erdos_gallai(seq):
                    verdict = reduce_to_constant(seq)
                    assert verdict.graphical
                    assert "refute" not in verdict.certificate.outcome

    def test_rejections_are_independent_certificates(self):
        # every rejection that does not come from the override implies
        # non-graphicality on its own
        for n in range(1, 7):
            for seq in all_nonincreasing(n, n - 1):
                verdict = reduce_to_constant(seq)
                if not verdict.graphical and "refute" not in verdict.certificate.outcome:
                    assert not erdos_gallai(seq)

    def test_overaccept_counterexample_is_overridden(self):
        verdict = reduce_to_constant(D((3, 3, 3, 1)))
        assert not verdict.graphical
        assert "refute" in verdict.certificate.outcome

    # the outcome strings are part of the CLI output, so each is pinned verbatim
    @pytest.mark.parametrize(
        "seq, graphical, n_steps, outcome",
        [
            ((4, 1, 1, 1), False, 0, "reject: head 4 exceeds 3"),
            ((2, 2, 1), False, 1, "constant a=1, N*a=3 odd: not graphical"),
            (
                (3, 3, 3, 1),
                False,
                2,
                "constant a=1, N*a=4 even, but exact inequalities refute graphicality "
                "(partial reductions are one-way)",
            ),
            ((5, 4, 4, 3, 3, 3), True, 1, "constant a=3, N*a=18 even, a<=5"),
            ((2, 1, 0), False, 0, "reject: not enough positive entries for head 2"),
        ],
    )
    def test_outcome_strings(self, seq, graphical, n_steps, outcome):
        verdict = reduce_to_constant(D(seq))
        assert verdict.method == "constant-reduction" and verdict.c_graphical is None
        assert verdict.graphical is graphical
        assert len(verdict.certificate.steps) == n_steps
        assert verdict.certificate.outcome == outcome



class TestReductionsOnPlainLists:
    """The sequence-returning reductions step on plain lists; the runs of
    equal values serve `check --method hh|constant` and `havel_hakimi` only."""

    SEQS = [
        (5, 4, 4, 3, 3, 3),
        (4, 4, 3, 3, 2, 2, 1, 1, 0, 0),
        (3, 3, 3, 1),
        (6, 6, 6, 6, 6, 6, 6, 2, 2, 1),
        (40,) * 10 + (12,) * 60 + (3,) * 100 + (0,) * 30,
        (2, 1, 0),
        (4, 1, 1, 1),
    ]

    @classmethod
    def results(cls):
        out = []
        for x in map(D, cls.SEQS):
            n = len(x)
            out += [havel_hakimi_trace(x), reduce_to_constant(x)]
            for fn, args in (
                (hh_reduce, (x,)),
                (generalized_reduce, (x, 1, max(1, min(x[0], n - 1)))),
                (generalized_reduce, (x, 2, 1)),
                (generalized_reduce, (x, n, 1)),
            ):
                try:
                    out.append(fn(*args))
                except Exception as exc:  # compared, not handled
                    out.append((type(exc), str(exc)))
        return out

    def test_library_reductions_build_no_runs(self, monkeypatch):
        expected = self.results()

        def forbidden(*args, **kwargs):
            raise AssertionError("built runs of equal values for a library reduction")

        for name in ("_runs", "_lower", "_insert", "_reduction"):
            monkeypatch.setattr(f"degseq.realizability.{name}", forbidden)
        assert self.results() == expected
        assert sum(isinstance(r, D) for r in expected) >= 2 * len(self.SEQS)


class TestNonGraphicalCertificate:
    def test_witness_found(self):
        w = non_graphical_certificate(D((4, 4, 3, 2, 1)))
        assert w is not None
        assert w.witness == D((4, 4, 2, 2, 2))
        assert w.d == 3

    def test_incomparable_is_inconclusive(self):
        assert non_graphical_certificate(D((4, 3, 3, 3, 1))) is None

    def test_witness_itself_is_inconclusive(self):
        assert non_graphical_certificate(D((4, 4, 2, 2, 2))) is None

    def test_odd_total_rejected(self):
        with pytest.raises(BadSumError):
            non_graphical_certificate(D((2, 1)))

    def test_soundness_exhaustive(self):
        for n in range(2, 8):
            for seq in all_nonincreasing(n, n - 1):
                s = sum(seq)
                if s % 2 or not (0 <= (s - 2 * (n - 1)) // 2 <= (n - 1) * (n - 2) // 2):
                    continue
                w = non_graphical_certificate(seq)
                if w is not None:
                    assert not erdos_gallai(seq), seq


class TestRealize:
    def test_simple_graphical(self):
        g = realize(D((4, 3, 3, 3, 1)))
        assert degree_sequence(g) == D((4, 3, 3, 3, 1))

    def test_single_edge(self):
        g = realize(D((1, 1)))
        assert g.edges == frozenset({(0, 1)})

    def test_not_graphical(self):
        with pytest.raises(NotGraphicalError):
            realize(D((5, 3, 3, 2, 1)))

    def test_postcondition_exhaustive(self):
        for n in range(1, 7):
            for seq in all_nonincreasing(n, n - 1):
                if erdos_gallai(seq):
                    assert degree_sequence(realize(seq)) == seq


class TestRealizeConnected:
    def test_known_c_graphical(self):
        g = realize_connected(D((4, 3, 3, 3, 1)))
        assert degree_sequence(g) == D((4, 3, 3, 3, 1))
        assert is_connected(g)

    def test_graphical_but_not_c_graphical(self):
        with pytest.raises(NotCGraphicalError):
            realize_connected(D((2, 1, 1, 1, 1)))

    def test_star_sequence(self):
        g = realize_connected(D((4, 1, 1, 1, 1)))
        assert g.edges == star(5).edges

    def test_single_vertex(self):
        assert is_c_graphical(D((0,)))
        g = realize_connected(D((0,)))
        assert g.n == 1 and not g.edges

    def test_connects_disconnected_greedy_output(self):
        # (1,1,1,1) realizes greedily as two disjoint edges; not c-graphical
        assert not is_c_graphical(D((1, 1, 1, 1)))
        # (2,2,2,2,2,1,1) forces a swap: greedy output is a triangle + path
        seq = D((2, 2, 2, 2, 2, 1, 1))
        if is_c_graphical(seq):
            g = realize_connected(seq)
            assert is_connected(g) and degree_sequence(g) == seq

    def test_c_graphical_family_exhaustive(self):
        for n in range(2, 7):
            for seq in all_nonincreasing(n, n - 1):
                if is_c_graphical(seq):
                    g = realize_connected(seq)
                    assert is_connected(g)
                    assert degree_sequence(g) == seq

    def test_missing_cycle_edge_is_an_internal_inconsistency(self, monkeypatch, capsys):
        # a wrong "yes" from the feasibility test on two disjoint K2s, which
        # have no edge to swap away, must surface, not loop or mis-merge
        monkeypatch.setattr(
            realizability, "is_c_graphical", lambda x: tuple(x) == (1, 1, 1, 1)
        )
        with pytest.raises(InternalInconsistencyError, match="no cycle edge"):
            realize_connected(D((1, 1, 1, 1)))
        assert main(["realize", "1,1,1,1", "--connected"]) == 3
        assert "no cycle edge" in capsys.readouterr().err


class TestInverseTransfer:
    def test_star_transfer(self):
        h = apply_inverse_transfer(star(5), 1, 2)
        assert degree_sequence(h) == D((3, 2, 1, 1, 1))
        assert is_connected(h)

    def test_equal_ranks_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            apply_inverse_transfer(star(5), 2, 2)

    def test_unsortable_result_rejected(self):
        # ranks 2,3 of the star both have degree 1: decrementing rank 2
        # below rank 3 plus incrementing rank 3 breaks the ordering
        with pytest.raises(PreconditionViolatedError):
            apply_inverse_transfer(star(5), 2, 3)

    def test_disconnected_host(self):
        # two triangles; move a unit from rank 6 to rank 1
        g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        g2 = SimpleGraph.from_edges(6, list(g.edges - {(4, 5)}) + [(0, 4)])
        # g2 has degrees (3,2,2,2,2,1); inverse transfer back to (2,2,2,2,2,2)
        h = apply_inverse_transfer(g2, 1, 6)
        assert degree_sequence(h) == D((2, 2, 2, 2, 2, 2))


class TestRealizeViaDomination:
    def test_identity(self, graph_43331):
        g = realize_via_domination(degree_sequence(graph_43331), graph_43331)
        assert g == graph_43331

    def test_trees_from_star(self):
        # every positive length-6 sequence with total 10 is a tree sequence
        for part in partitions(10, 6, max_part=5, min_part=1):
            g = realize_via_domination(D(part), star(6))
            assert is_connected(g)
            assert degree_sequence(g) == D(part)
            assert len(g.edges) == 5

    def test_not_majorized(self):
        from degseq.errors import NotMajorizedError, SumMismatchError

        # equal total 8, but the pair beats the star's second prefix
        with pytest.raises(NotMajorizedError):
            realize_via_domination(D((3, 3, 2, 0, 0)), star(5))
        with pytest.raises(SumMismatchError):
            realize_via_domination(D((4, 2, 2, 1, 1)), star(5))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(min_n=2, max_n=7))
    def test_random_graph_self_domination(self, g):
        assert realize_via_domination(degree_sequence(g), g) == g


class BrokenRewiring:
    """Spies on the rewiring step's helpers and, from step `at` on, breaks
    the first edit whose vi-vj path has at least three vertices.

    "pivot_on_path" moves the path edge {vi, P[1]} to vj instead of the
    edge to the chosen pivot; "unlink_path_edge" makes the right edit and
    also removes the last path edge; "skip_link" removes {vi, pivot} but
    never adds {vj, pivot}. `steps` counts the steps begun and `hit` is
    the step that was broken.
    """

    def __init__(self, monkeypatch, kind, at=1):
        self.kind, self.at, self.steps, self.hit, self.route = kind, at, 0, None, None
        self._path, self._link, self._unlink = (
            realizability._path,
            realizability._link,
            realizability._unlink,
        )
        for name in ("_path", "_link", "_unlink"):
            monkeypatch.setattr(realizability, name, getattr(self, name[1:]))

    @property
    def active(self):
        return self.hit == self.steps

    def path(self, adj, i, j):
        self.route = self._path(adj, i, j)
        self.steps += 1
        if self.hit is None and self.kind and self.steps >= self.at and len(self.route) >= 3:
            self.hit = self.steps
        return self.route

    def unlink(self, adj, u, v):
        if self.active and self.kind == "pivot_on_path":
            v = self.route[1]
        self._unlink(adj, u, v)
        if self.active and self.kind == "unlink_path_edge":
            self._unlink(adj, self.route[-2], self.route[-1])

    def link(self, adj, u, v):
        if not self.active or self.kind == "unlink_path_edge":
            self._link(adj, u, v)
        elif self.kind == "pivot_on_path" and self.route[1] not in adj[u]:
            self._link(adj, u, self.route[1])


def broom():
    """Vertex 0 with leaves 5 and 6 and the path 0-1-2-3-4."""
    return SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6)])


def double_star():
    """Vertex 0 joined to 1..6 and vertex 1 joined to 7..11: a tree above the path."""
    edges = [(0, v) for v in range(1, 7)] + [(1, v) for v in range(7, 12)]
    return SimpleGraph.from_edges(12, edges)


KINDS = ["pivot_on_path", "unlink_path_edge", "skip_link"]
PATH_SEQUENCE = D([2] * 10 + [1, 1])  # the path on 12 vertices, below the star and hub fill


class TestRewiringCertificate:
    """A broken edit on a connected graph is caught at its own step by the
    path certificate, not at the whole-graph check at the end."""

    def test_spies_alone_change_nothing(self, monkeypatch):
        expected = realize_via_domination(PATH_SEQUENCE, star(12))
        spy = BrokenRewiring(monkeypatch, None)
        assert realize_via_domination(PATH_SEQUENCE, star(12)) == expected
        assert spy.hit is None and spy.steps > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_transfer(self, monkeypatch, kind):
        # ranks 1 and 5 are vertices 0 and 4, joined by the path 0-1-2-3-4
        assert degree_sequence(apply_inverse_transfer(broom(), 1, 5)) == D([2] * 5 + [1, 1])
        spy = BrokenRewiring(monkeypatch, kind)
        with pytest.raises(InternalInconsistencyError, match="rewired graph lost connectivity"):
            apply_inverse_transfer(broom(), 1, 5)
        assert spy.hit == spy.steps == 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("g_prime", [star(12), double_star()], ids=["star", "double-star"])
    def test_every_step_of_a_chain(self, monkeypatch, kind, g_prime):
        chain = decompose_into_basic_transfers(PATH_SEQUENCE, degree_sequence(g_prime))
        hits = set()
        for at in range(1, len(chain.steps) + 1):
            with monkeypatch.context() as m:
                spy = BrokenRewiring(m, kind, at)
                with pytest.raises(InternalInconsistencyError, match="lost connectivity"):
                    realize_via_domination(PATH_SEQUENCE, g_prime)
                assert spy.hit is not None and spy.steps == spy.hit, at
                hits.add(spy.hit)
        assert len(hits) > 1

    def test_no_whole_graph_pass_per_step_when_connected(self, monkeypatch):
        calls = {"_connected": 0, "_ranks": 0}

        def counted(name):
            real = getattr(realizability, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(realizability, name, counted(name))
        chain = decompose_into_basic_transfers(PATH_SEQUENCE, degree_sequence(star(12)))
        assert len(chain.steps) == 9
        realize_via_domination(PATH_SEQUENCE, star(12))
        assert calls == {"_connected": 2, "_ranks": 1}  # before the chain and after it


class TestVerdictType:
    def test_c_graphical_implies_graphical(self):
        with pytest.raises(ValueError):
            Verdict(D((1, 1)), graphical=False, c_graphical=True, method="eg")

    def test_json_round_trip(self):
        ok, trace = havel_hakimi_trace(D((2, 2, 1, 1)))
        v = Verdict(D((2, 2, 1, 1)), ok, None, "hh", trace)
        assert Verdict.from_dict(v.to_dict()) == v
