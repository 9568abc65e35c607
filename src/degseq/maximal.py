"""Exhaustive degree-sequence posets of connected graphs with a fixed total.

For n vertices and degree total 2(n-1) + 2d we enumerate, two independent
ways, the set of degree sequences realized by connected graphs:

* graphs oracle: every labeled graph with exactly n-1+d edges whose degree
  vector is non-increasing, keeping the connected ones. That loses nothing:
  relabeling the vertices of any graph by non-increasing degree gives such a
  labeling with the same edges, the same connectivity and the same sorted
  sequence. A depth-first search decides the vertex pairs in lexicographic
  order, so deg[i] is final once the pairs (i, j) are decided, and it drops
  a branch when deg[i] is 0, when a later vertex already has a larger
  degree, or when the edges still to place exceed what the later vertices
  can take with each capped at deg[i]; it adds (i, j) only while deg[i] is
  below deg[i-1]. The search carries the components of vertices i..n-1
  and drops a branch once vertex i's component is closed: i picks no later
  neighbour and no later vertex shares it. What remains to decide after
  vertex i-1 depends only on the edges left, deg[i-1] and the degrees and
  components of vertices i..n-1, so the search is memoized on that state
  within one call. The oracle never consults Erdős–Gallai;
* partitions oracle: every positive non-increasing length-n sequence with
  the right total that passes the Erdős–Gallai test (with a total of at
  least 2(n-1), a positive graphical sequence has a connected realization,
  so that test IS the operational c-graphicality criterion, and agreement
  of the two oracles validates it against ground truth). The search drops
  a prefix x_1..x_k once its own Erdős–Gallai inequality fails for every
  tail, until x_{k+1} is capped at k+1; then each non-increasing tail in
  1..cap with the right sum, built once per (sum, length, cap) in a call,
  is joined to the prefix and tested. The prunes are relaxed Erdős–Gallai
  inequalities that cut only branches whose every leaf fails the test, so
  skipping them past that point admits no sequence the test would reject.

A mismatch raises OracleMismatchError and is always a bug, never a warning.
On top of the enumeration sit the maximal elements of the prefix-sum order
and the poset-based c-graphicality test. The maximal elements are generated
directly as the connected threshold sequences, one per partition of d into
distinct parts of at most n-2, and each image they serve is checked
against them at run time.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, le

from .constructions import _check_range, max_added_edges
from .errors import (
    BadSumError,
    InternalInconsistencyError,
    OracleMismatchError,
    OutOfRangeError,
)
from .orders import DegreeSequence, format_sequence, majorized
from .realizability import erdos_gallai_violation
from .record import Record

# The graphs oracle's cost is its memoized search over degree-ordered
# labelings. On a 2-vCPU Xeon VM (Python 3.11), (8, 3) takes 0.11 s, (8, 6)
# 0.15 s and a full n = 8 sweep (22 levels) 1.4 s; at n = 9, (9, 3) takes
# 0.6 s, (9, 6), (9, 9) and (9, 12) 0.8-1.4 s each and a full n = 9 sweep
# (29 levels) 15 s; (10, 3) takes 5 s. Callers may override per call, at
# their own expense.
GRAPHS_ORACLE_MAX_N = 8
PARTITIONS_ORACLE_MAX_N = 12

ORACLES = ("graphs", "partitions", "both")


@lru_cache(maxsize=None)
def _sequences_by_graphs(n: int, d: int) -> frozenset[DegreeSequence]:
    memo: dict[tuple, set[tuple[int, ...]]] = {}

    def block(left: int, prev: int, deg: tuple[int, ...], comp: tuple[int, ...]):
        # the pairs (k, i) with k < i are decided, i = n - len(deg): vertex
        # i-1 ended at degree prev (n-1 for i = 0), vertices i..n-1 have
        # degrees deg and components comp, numbered in first-seen order, and
        # every earlier vertex is joined to one of them. Pick i's later
        # neighbours; the result is every final degree tuple of i..n-1
        key = (left, prev, deg, comp)
        found = memo.get(key)
        if found is not None:
            return found
        found = memo[key] = set()
        if len(deg) == 1:
            if left == 0 and deg[0]:
                found.add(deg)
            return found
        now, rest = deg[0], deg[1:]
        label, later = comp[0], comp[1:]
        high = max(rest)
        base = sum(rest)
        for size in range(min(prev - now, len(rest), left) + 1):
            # deg[i] ends at top: prune on a zero, on a later vertex above
            # top, and on more edges left than the later vertices can take
            # when each is capped at top; a later vertex already at top
            # cannot be chosen, and i's component closes without reaching
            # vertex n-1 if i picks none and no later vertex shares it
            top = now + size
            if top == 0 or high > top or 2 * (left - size) > top * len(rest) - base - size:
                continue
            if not size and label not in later:
                continue
            free = [j for j, r in enumerate(rest) if r < top]
            for chosen in itertools.combinations(free, size):
                grown = list(rest)
                for j in chosen:
                    grown[j] += 1
                merged = {label, *(later[j] for j in chosen)}
                names: dict[int, int] = {}
                joined = tuple(
                    names.setdefault(label if c in merged else c, len(names)) for c in later
                )
                for tail in block(left - size, top, tuple(grown), joined):
                    found.add((top, *tail))
        return found

    tails = block(n - 1 + d, n - 1, (0,) * n, tuple(range(n)))
    return frozenset(DegreeSequence._from_sorted(k) for k in tails)


@lru_cache(maxsize=None)
def _sequences_by_partitions(n: int, d: int) -> frozenset[DegreeSequence]:
    total = 2 * (n - 1) + 2 * d
    found: list[DegreeSequence] = []
    acc: list[int] = []

    @lru_cache(maxsize=None)  # one cache per call, so no sweep warms the next
    def tails(remaining: int, slots: int, cap: int) -> list[list[int]]:
        # every non-increasing list of slots entries in 1..cap summing to remaining
        if not slots:
            return [[]]
        tops = range(min(cap, remaining - slots + 1), -(-remaining // slots) - 1, -1)
        return [[v, *t] for v in tops for t in tails(remaining - v, slots - 1, v)]

    def extend(k: int, prefix: int, cap: int) -> None:
        # acc holds x_1..x_k, summing to prefix, each entry at most cap; the
        # bounds on x_{k+1} leave room for a tail of entries in 1..x_{k+1}
        remaining = total - prefix
        slots = n - k
        if cap <= k + 1:  # each tail is built once per key, and each leaf tested
            seqs = map(DegreeSequence._from_sorted, [acc + t for t in tails(remaining, slots, cap)])
            found.extend(s for s in seqs if erdos_gallai_violation(s) is None)
            return
        k += 1
        tail = n - k
        base = k * (k - 1)
        for v in range(min(cap, remaining - tail), -(-remaining // slots) - 1, -1):
            # inequality k of Erdős–Gallai with the tail at its largest: it
            # sums to total - s and each of its entries is at most v
            s = prefix + v
            if s > base + min(total - s, tail * (k if k < v else v)):
                continue
            acc.append(v)
            extend(k, s, v)
            acc.pop()

    extend(0, 0, n - 1)
    return frozenset(found)


def enumeration_cap(oracle: str, max_n: int | None = None) -> int:
    """Largest n the oracle enumerates; max_n can raise the cap, never lower it.

    "both" runs the graphs oracle, so it has that oracle's cap.
    """
    default = PARTITIONS_ORACLE_MAX_N if oracle == "partitions" else GRAPHS_ORACLE_MAX_N
    return max(default, max_n or 0)


def enumerate_connected_sequences(
    n: int, d: int, oracle: str = "both", *, max_n: int | None = None
) -> frozenset[DegreeSequence]:
    """Degree sequences of all connected n-vertex graphs with n-1+d edges.

    oracle selects the enumeration mechanism; "both" runs the two and
    insists on set equality.
    """
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}")
    if n > (cap := enumeration_cap(oracle, max_n)):
        raise OutOfRangeError(f"n={n} outside 2..{cap}")
    _check_range(n, d)
    if oracle == "graphs":
        return _sequences_by_graphs(n, d)
    if oracle == "partitions":
        return _sequences_by_partitions(n, d)
    by_graphs = _sequences_by_graphs(n, d)
    by_partitions = _sequences_by_partitions(n, d)
    if by_graphs != by_partitions:
        only_g = {format_sequence(s) for s in by_graphs - by_partitions}
        only_p = {format_sequence(s) for s in by_partitions - by_graphs}
        raise OracleMismatchError(
            f"n={n} d={d}: graphs-only {sorted(only_g)}, partitions-only {sorted(only_p)}"
        )
    return by_graphs


class MaximalSetReport(Record):
    """Image of the connected-graph poset plus its maximal elements.

    oracle_agreement records that both oracles ran and produced identical
    images (a mismatch would have raised instead of producing a report).
    """

    __slots__ = __match_args__ = ("n", "d", "all_sequences", "maximal", "oracle_agreement")
    n: int
    d: int
    all_sequences: frozenset[DegreeSequence]
    maximal: frozenset[DegreeSequence]
    oracle_agreement: bool

    def sorted_maximal(self) -> list[DegreeSequence]:
        return sorted(self.maximal, reverse=True)

    def sorted_all(self) -> list[DegreeSequence]:
        return sorted(self.all_sequences, reverse=True)

    def format_text(self, full: bool = False) -> str:
        lines = [
            f"n={self.n} d={self.d} image={len(self.all_sequences)} "
            f"maximal={len(self.maximal)} "
            f"oracle_agreement={'yes' if self.oracle_agreement else 'unchecked'}"
        ]
        lines.extend(format_sequence(s) for s in self.sorted_maximal())
        if full:
            lines.append("# full image")
            lines.extend(format_sequence(s) for s in self.sorted_all())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "all_sequences": [list(s) for s in self.sorted_all()],
            "maximal": [list(s) for s in self.sorted_maximal()],
            "oracle_agreement": self.oracle_agreement,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MaximalSetReport":
        return cls(
            n=data["n"],
            d=data["d"],
            all_sequences=frozenset(DegreeSequence(s) for s in data["all_sequences"]),
            maximal=frozenset(DegreeSequence(s) for s in data["maximal"]),
            oracle_agreement=data["oracle_agreement"],
        )


def maximal_elements(
    n: int, d: int, oracle: str = "both", *, max_n: int | None = None
) -> MaximalSetReport:
    """The enumerated image and its maximal elements under <=.

    The maximal elements are the connected threshold sequences at (n, d),
    generated directly (see _threshold_sequences). Once per image it is
    checked that they lie in the image, are pairwise incomparable and
    dominate every image sequence; a failure is a bug.
    """
    seqs = enumerate_connected_sequences(n, d, oracle, max_n=max_n)
    return MaximalSetReport(
        n=n,
        d=d,
        all_sequences=seqs,
        maximal=_maximal_subset(seqs, n, d),
        oracle_agreement=(oracle == "both"),
    )


def _threshold_sequences(n: int, d: int) -> list[DegreeSequence]:
    """Degree sequences of the connected threshold graphs with n vertices
    and n-1+d edges, one per partition of d into distinct parts <= n-2.

    A threshold graph adds vertices 0, 1, ..., n-1 in turn, each isolated
    or dominating (joined to every earlier vertex). With D the set of
    dominating vertices other than vertex 0, vertex i has degree
    (i if i in D else 0) + #{p in D : p > i}, and there are sum(D) edges.
    The graph is connected iff vertex n-1 dominates, so D = parts | {n-1}
    for a partition of d into distinct parts in 1..n-2.

    In t's order, the positive rows t_u - u are n-1 and then the parts,
    decreasing, and constructions._lists(t) (u joined to u+1..t_u) realizes t.

    Proof sketch that these are exactly the maximal elements of the image
    (the connected n-vertex graphs with n-1+d edges):

    * a maximal t has t_1 = n-1: otherwise a vertex a of top degree misses
      some b; on a shortest path a, p1, p2, ..., b move the edge p1p2 to
      ap2. The graph stays connected (p1 and p2 both reach a), and the
      degree moves from p1 to a, with deg a >= deg p1: the sequence grows;
    * a maximal t is threshold: realize it with a dominating vertex h. A
      non-threshold graph has two vertices u, v, neither of whose
      neighborhoods is inside the other's closed one (Chvátal & Hammer),
      neither of them h; with deg u >= deg v and w a neighbor of v not in
      N[u], moving vw to uw keeps h dominating and grows the sequence;
    * every generated sequence is maximal: a threshold sequence dominates
      every other graphical sequence it is comparable with (Ruch & Gutman
      1979; Merris & Roby, "The lattice of threshold graphs", 2005), and
      distinct partitions give distinct threshold sequences (Hammer,
      Ibaraki & Simeone 1981).

    Every image sequence then lies below one of them, as the poset is
    finite. _verified_maximal re-proves all of this for each image served.
    """
    found: list[DegreeSequence] = []
    parts: list[int] = []

    def extend(rest: int, cap: int) -> None:
        # parts holds distinct parts, decreasing, the next at most cap
        if not rest:  # vertex i: own[i] plus the dominating vertices after it
            own = [0] * n
            for p in (n - 1, *parts):
                own[p] = p
            after = itertools.accumulate(map(bool, reversed(own)), initial=0)
            found.append(DegreeSequence(map(add, reversed(own), after)))
            return
        for p in range(min(cap, rest), 0, -1):
            if p * (p + 1) // 2 < rest:
                break  # 1 + 2 + ... + p falls short, and so does every smaller p
            parts.append(p)
            extend(rest - p, p - 1)
            parts.pop()

    extend(d, n - 2)
    return found


def _verified_maximal(
    seqs: frozenset[DegreeSequence], tops: list[DegreeSequence]
) -> frozenset[DegreeSequence]:
    """tops as a set, once it is shown to be the maximal set of seqs: each
    lies in seqs, no two are comparable, and each of seqs lies below one."""
    for t in tops:
        if t not in seqs:
            raise InternalInconsistencyError(f"{format_sequence(t)} generated but not in the image")
    sums = [tuple(itertools.accumulate(t)) for t in tops]
    for (s, a), (t, b) in itertools.combinations(zip(tops, sums), 2):
        if all(map(le, a, b)) or all(map(le, b, a)):
            raise InternalInconsistencyError(
                f"generated {format_sequence(s)} and {format_sequence(t)} are comparable"
            )
    # neighbours in lexicographic order tend to share a dominator, so the
    # last one found is tried first
    last = sums[0]
    for s in sorted(seqs, reverse=True):
        low = tuple(itertools.accumulate(s))
        if all(map(le, low, last)):
            continue
        for high in sums:
            if all(map(le, low, high)):
                last = high
                break
        else:
            raise InternalInconsistencyError(
                f"{format_sequence(s)} not dominated by any maximal element"
            )
    return frozenset(tops)


@lru_cache(maxsize=None)
def _maximal_subset(seqs: frozenset[DegreeSequence], n: int, d: int) -> frozenset[DegreeSequence]:
    """The maximal set of the image seqs at (n, d), generated and verified
    once per image: seqs is an oracle's cached enumeration, and "graphs"
    and "both" return the same object, so one run serves both."""
    return _verified_maximal(seqs, _threshold_sequences(n, d))


def is_c_graphical_poset(x: DegreeSequence, oracle: str = "both") -> bool:
    """Ground-truth c-graphicality: dominated by a maximal element.

    Requires an even total and positive entries. A total too small (or too
    large) for any connected graph on len(x) vertices simply yields False.
    """
    x = DegreeSequence(x)
    n = len(x)
    s = sum(x)
    if s % 2:
        raise BadSumError(f"total {s} is odd")
    if x[-1] < 1:
        raise BadSumError("poset test needs positive entries")
    d = (s - 2 * (n - 1)) // 2
    if d < 0 or d > max_added_edges(n):
        return False
    report = maximal_elements(n, d, oracle)
    return any(majorized(x, y) for y in report.maximal)
