"""Graphicality tests, realizations, reductions, and order-based rewiring.

The classical Erdős–Gallai inequalities and the Havel–Hakimi reduction
decide whether a sequence is graphical; the two must agree everywhere and
the test suite sweeps them against each other exhaustively at small sizes.
On top of those sit a generalized reduction (any rank, any number of
removed links, in the Wang–Kleitman style), a faster reduce-to-constant
strategy, a majorization-based non-graphicality witness, and the
constructive pipeline that turns a dominating connected realization into a
realization of any dominated sequence by rewiring one unit transfer at a
time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from heapq import heappop, heappush
from itertools import accumulate, pairwise
from operator import mul, neg

from .errors import (
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
from .graphs import (
    Adjacency,
    Edge,
    SimpleGraph,
    _adjacency_lists,
    _components,
    _connected,
    _freeze,
    _link,
    _path,
    _thaw,
    _unlink,
    degree_sequence,
)
from .orders import (
    DegreeSequence,
    decompose_into_basic_transfers,
    format_sequence,
    majorized,
)
from .record import Record


# -- verdicts and traces -----------------------------------------------------


class TraceStep(Record):
    __slots__ = __match_args__ = ("before", "rule", "after")
    before: DegreeSequence
    rule: str
    after: DegreeSequence

    def to_dict(self) -> dict:
        return {"before": list(self.before), "rule": self.rule, "after": list(self.after)}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceStep":
        return cls(
            before=DegreeSequence(data["before"]),
            rule=data["rule"],
            after=DegreeSequence(data["after"]),
        )


class ReductionTrace(Record):
    """Ordered reduction steps plus the terminal outcome description."""

    __slots__ = __match_args__ = ("steps", "outcome")
    steps: tuple[TraceStep, ...]
    outcome: str

    def to_dict(self) -> dict:
        return {
            "kind": "trace",
            "steps": [s.to_dict() for s in self.steps],
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReductionTrace":
        return cls(
            steps=tuple(TraceStep.from_dict(s) for s in data["steps"]),
            outcome=data["outcome"],
        )


class NonGraphicalWitness(Record):
    """A canonical hub-fill sequence strictly below the tested sequence.

    Any sequence strictly dominating the hub-fill sequence with the same
    total cannot be graphical, so the witness certifies the negative
    verdict.
    """

    __slots__ = __match_args__ = ("d", "witness")
    d: int
    witness: DegreeSequence

    def to_dict(self) -> dict:
        return {"kind": "witness", "d": self.d, "witness": list(self.witness)}

    @classmethod
    def from_dict(cls, data: dict) -> "NonGraphicalWitness":
        return cls(d=data["d"], witness=DegreeSequence(data["witness"]))


class RealizationCertificate(Record):
    """Edge list of a witnessing realization."""

    __slots__ = __match_args__ = ("n", "edges")
    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_graph(cls, g: SimpleGraph) -> "RealizationCertificate":
        return cls(n=g.n, edges=tuple(g.sorted_edges()))

    def to_dict(self) -> dict:
        return {"kind": "realization", "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, data: dict) -> "RealizationCertificate":
        return cls(n=data["n"], edges=tuple((e[0], e[1]) for e in data["edges"]))


class Verdict(Record):
    """Outcome of a graphicality question, with the deciding method.

    c_graphical is None when the question was about plain graphicality.
    A True c_graphical always comes with graphical=True.
    """

    __slots__ = __match_args__ = ("sequence", "graphical", "c_graphical", "method", "certificate")
    _defaults = {"certificate": None}
    sequence: DegreeSequence
    graphical: bool
    c_graphical: bool | None
    method: str
    certificate: ReductionTrace | NonGraphicalWitness | RealizationCertificate | None

    def __post_init__(self) -> None:
        if self.c_graphical and not self.graphical:
            raise ValueError("c-graphical implies graphical")

    def to_dict(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "graphical": self.graphical,
            "c_graphical": self.c_graphical,
            "method": self.method,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Verdict":
        cert = data.get("certificate")
        parsed = None
        if cert is not None:
            parsed = {
                "trace": ReductionTrace.from_dict,
                "witness": NonGraphicalWitness.from_dict,
                "realization": RealizationCertificate.from_dict,
            }[cert["kind"]](cert)
        return cls(
            sequence=DegreeSequence(data["sequence"]),
            graphical=data["graphical"],
            c_graphical=data["c_graphical"],
            method=data["method"],
            certificate=parsed,
        )


# -- graphicality tests --------------------------------------------------


def erdos_gallai_violation(x: DegreeSequence) -> tuple[int, int, int] | None:
    """First violated Erdős–Gallai inequality as (k, lhs, rhs), or None.

    The k-th inequality reads lhs = x_1 + ... + x_k <= rhs = k(k-1) +
    sum over j > k of min(x_j, k); the smallest failing k is returned.
    Parity is not checked here. One pass over k in exact integers, O(N)
    after sorting (Tripathi & Vijay 2003): q counts the entries >= k and
    only moves left as k grows, so while q > k the tail sum is k(q-k) plus
    the running sum of x[q:], and from then on it is the plain remainder.
    """
    x = DegreeSequence(x)
    n = len(x)
    total = sum(x)
    q = n
    low = 0  # sum(x[q:])
    prefix = 0
    for k in range(1, n + 1):
        prefix += x[k - 1]
        while q and x[q - 1] < k:
            q -= 1
            low += x[q]
        if q > k:
            rhs = k * (k - 1) + k * (q - k) + low
        else:
            rhs = k * (k - 1) + total - prefix
        if prefix > rhs:
            return k, prefix, rhs
    return None


def erdos_gallai(x: DegreeSequence) -> bool:
    """Even total and no violated prefix inequality; O(N) after sorting.

    erdos_gallai_violation gives the first violated inequality itself.
    """
    x = DegreeSequence(x)
    return sum(x) % 2 == 0 and erdos_gallai_violation(x) is None


def _outcome(x: DegreeSequence, constant: bool, h: int, last: int, n: int) -> tuple[bool, str]:
    """Verdict and outcome text of the head reduction of x, or with constant the
    reduce-to-constant one, stopped at length n, head h and last entry last: a
    step still due there underflowed, and a constant accept is checked on x."""
    if h > n - 1:
        return False, f"reject: head {h} exceeds {n - 1}"
    if last < h if constant else h > 0:  # a step was due
        return False, f"reject: not enough positive entries for head {h}"
    if not constant:
        return True, "all-zero"
    if (n * h) % 2:
        return False, f"constant a={h}, N*a={n * h} odd: not graphical"
    if not erdos_gallai(x):
        return False, (
            f"constant a={h}, N*a={n * h} even, but exact inequalities "
            "refute graphicality (partial reductions are one-way)"
        )
    return True, f"constant a={h}, N*a={n * h} even, a<={n - 1}"


# (values, counts, ends): values strictly decreasing, counts positive, and
# ends[k] the position after run k, counted from where the first step began
Runs = tuple[list[int], list[int], list[int]]


def _runs(x: DegreeSequence) -> Runs:
    """The runs of equal values of x, counted in one C-level pass."""
    counts = Counter(x)  # keeps first-seen order, which is decreasing
    return list(counts), list(counts.values()), list(accumulate(counts.values()))


def _lower(runs: Runs, links: int) -> Runs | None:
    """Take the head out and subtract one from the links >= 1 largest
    remaining entries: the new runs, or None when a lowered entry is zero.
    The run of the last lowered value v is split, its unlowered part first
    (the same multiset as lowering its rightmost copies); only that part
    and the run below can meet an equal neighbour. One binary search, O(r)
    C-level list work for r runs and one comprehension over the lowered runs."""
    values, counts, ends = runs[0][:], runs[1][:], runs[2][:]
    if counts[0] > 1:
        counts[0] -= 1
    else:
        del values[0], counts[0], ends[0]
    start = ends[0] - counts[0]
    i = bisect_left(ends, start + links)  # the remaining entries hold links or more
    v, c = values[i], counts[i]
    if v == 0:
        return None
    left = start + links - ends[i] + c
    head, head_counts, head_ends = [u - 1 for u in values[:i]], counts[:i], ends[:i]
    if c > left and head and head[-1] == v:
        head_counts[-1] += c - left
        head_ends[-1] += c - left
    elif c > left:
        head.append(v)
        head_counts.append(c - left)
        head_ends.append(ends[i] - left)
    head.append(v - 1)
    head_counts.append(left)
    head_ends.append(ends[i])
    below = i + 1
    if below < len(values) and values[below] == v - 1:
        head_counts[-1] += counts[below]
        head_ends[-1] = ends[below]
        below += 1
    return head + values[below:], head_counts + counts[below:], head_ends + ends[below:]


def _insert(runs: Runs, u: int) -> None:  # one more entry u, in place
    values, counts, ends = runs
    p = bisect_left(values, -u, key=neg)
    if p < len(values) and values[p] == u:
        counts[p] += 1
    else:
        ends.insert(p, ends[p - 1] if p else ends[0] - counts[0])
        values.insert(p, u)
        counts.insert(p, 1)
    ends[p:] = [e + 1 for e in ends[p:]]


_Reduction = namedtuple("_Reduction", "graphical outcome states rules printed")


def _reduction(x: DegreeSequence, constant: bool, keep: float = float("inf")) -> _Reduction:
    """The head reduction of x, or with constant the reduce-to-constant one,
    on runs, for `check` and havel_hakimi. states[i] is the chain's i-th
    sequence as its values and counts and rules[i] the rule to states[i + 1];
    both are emptied once printed, the integers of every step's before and
    after, exceeds keep. A step costs one binary search and O(r) C-level
    list work for r distinct values plus a comprehension over its lowered
    runs; O(r) memory at keep=0.
    """
    runs, n = _runs(x), len(x)
    states, rules, printed = [runs[:2]], [], 0
    # step while the head fits and the sequence is not yet constant (constant) or all zero (hh)
    while (h := runs[0][0]) <= n - 1 and (runs[0][-1] < h if constant else h > 0):
        links = min(h - runs[0][-1], n - 1) if constant else h
        if (lowered := _lower(runs, links)) is None:
            break
        runs = lowered
        if constant:
            _insert(runs, h - links)
        printed += 2 * n - (not constant)
        if printed <= keep:
            states.append(runs[:2])
            rules.append(f"reduce(k=1,n={links})" if constant else "hh")
        elif rules:  # over keep: no trace will be printed
            states.clear()
            rules.clear()
        n -= not constant
    return _Reduction(*_outcome(x, constant, h, runs[0][-1], n), states, rules, printed)


def _rendered_steps(states: list, rules: list[str], sep: str):
    """Yield (before, rule, after) per step of a _reduction chain, each
    sequence rendered once from its values and counts, entries joined by
    sep. A chain with a step starts with a head below its length and no
    step raises an entry, so the table of entry texts stays that short."""
    if not rules:
        return
    texts = [sep + str(v) for v in range(states[0][0][0] + 1)].__getitem__
    rendered = ("".join(map(mul, map(texts, v), c))[len(sep) :] for v, c, *_ in states)
    for (before, after), rule in zip(pairwise(rendered), rules):
        yield before, rule, after


def havel_hakimi(x: DegreeSequence) -> bool:
    """The head reduction's verdict, no step kept: O(N·r) time, O(r) memory."""
    return _reduction(DegreeSequence(x), False, keep=0)[0]


def _lower_prefix(vals: list[int], count: int) -> None:
    """Subtract one from the first count entries of vals, keeping it sorted.

    vals is non-increasing and vals[count - 1] >= 1. The entries equal to
    v = vals[count - 1] form a tie block that may run past position count;
    lowering the rightmost copies of v in that block instead of the
    leftmost ones gives the same multiset already in non-increasing order.
    O(count) Python work and two binary searches, no re-sort.
    """
    if count == 0:
        return
    v = vals[count - 1]
    start = bisect_left(vals, -v, 0, count - 1, key=neg)
    end = bisect_right(vals, -v, count - 1, key=neg)
    vals[:start] = [u - 1 for u in vals[:start]]
    vals[end - (count - start) : end] = [v - 1] * (count - start)


def hh_reduce(x: DegreeSequence) -> DegreeSequence:
    """Drop the head h and subtract one from the next h entries.

    The result has length N-1 and stays non-increasing without a re-sort:
    within the tie block of the last lowered entry, the rightmost copies
    are the ones lowered. Raises HeadTooLargeError when h > N-1 and
    UnderflowError when fewer than h of the remaining entries are
    positive; both conditions imply the input is not graphical. O(N).
    """
    x = DegreeSequence(x)
    n = len(x)
    h = x[0]
    if h > n - 1:
        raise HeadTooLargeError(f"head {h} exceeds {n - 1}")
    if n == 1:
        raise ValueError("cannot reduce a single-entry sequence")
    if h > 0 and x[h] == 0:
        raise UnderflowError(f"only {sum(1 for v in x[1:] if v > 0)} positive entries for head {h}")
    vals = list(x[1:])
    _lower_prefix(vals, h)
    return DegreeSequence._from_sorted(vals)


def generalized_reduce(x: DegreeSequence, k: int, n_links: int) -> DegreeSequence:
    """Lower rank k by n_links and subtract one from the n_links largest others.

    Keeps the vertex (so the result has length N and may contain a zero when
    n_links equals the rank-k value). Graphicality is preserved in both
    directions. The order is kept without a re-sort: the others are lowered
    as in hh_reduce, the rightmost entries of the last tie block first,
    which gives the same multiset as breaking ties leftmost, and the
    lowered rank-k entry goes back in by binary search. O(N).
    """
    x = DegreeSequence(x)
    n = len(x)
    if not 1 <= k <= n:
        raise BadRankError(f"rank k={k} outside 1..{n}")
    if not 1 <= n_links <= x[k - 1]:
        raise BadCountError(f"n={n_links} outside 1..{x[k - 1]} for rank {k}")
    if n_links > n - 1:
        raise BadCountError(f"n={n_links} exceeds the {n - 1} other entries")
    others = list(x)
    del others[k - 1]
    if others[n_links - 1] == 0:
        raise UnderflowError("a targeted entry is already zero")
    _lower_prefix(others, n_links)
    lowered = x[k - 1] - n_links
    others.insert(bisect_left(others, -lowered, key=neg), lowered)
    return DegreeSequence._from_sorted(others)


def _trace(x: DegreeSequence, constant: bool) -> tuple[bool, ReductionTrace]:
    """The head reduction chain of x (hh_reduce), or with constant the
    reduce-to-constant one (generalized_reduce at rank 1), every step kept."""
    steps, cur = [], x
    while (h := cur[0]) <= len(cur) - 1 and (cur[-1] < h if constant else h > 0):
        links = min(h - cur[-1], len(cur) - 1) if constant else h
        try:
            after = generalized_reduce(cur, 1, links) if constant else hh_reduce(cur)
        except UnderflowError:
            break
        steps.append(TraceStep(cur, f"reduce(k=1,n={links})" if constant else "hh", after))
        cur = after
    graphical, outcome = _outcome(x, constant, h, cur[-1], len(cur))
    return graphical, ReductionTrace(tuple(steps), outcome)


def havel_hakimi_trace(x: DegreeSequence) -> tuple[bool, ReductionTrace]:
    """Iterate hh_reduce to a verdict, recording every step: O(N) list work
    per step, the Θ(N) sequence it records."""
    return _trace(DegreeSequence(x), False)


def reduce_to_constant(x: DegreeSequence) -> Verdict:
    """Drive the sequence to a constant with generalized head reductions.

    Each step reduces rank 1 by n = min(x_1 - x_N, N-1); a constant block
    (a,...,a) of length N is graphical iff a <= N-1 and N*a is even, which
    often ends the run in far fewer steps than the head reduction chain.

    All rejections (oversized head, underflow, odd N*a) are sound
    certificates of non-graphicality, and every graphical input is
    accepted, because each reduction step preserves graphicality in the
    forward direction. The reverse direction of a partial head reduction
    is NOT an equivalence, though ((3,3,3,1) reduces to the graphical
    (2,2,1,1) but is itself not graphical: re-attaching the removed links
    collides with existing edges), so a constant-rule accept is confirmed
    against the exact inequalities and overridden when refuted; the trace
    outcome records which rule decided. O(N) per step, one generalized_reduce.
    """
    x = DegreeSequence(x)
    graphical, trace = _trace(x, True)
    return Verdict(x, graphical, None, "constant-reduction", trace)


def non_graphical_certificate(x: DegreeSequence) -> NonGraphicalWitness | None:
    """Witness of non-graphicality by strict domination over the hub fill.

    Computes d from the total, builds the canonical hub-fill sequence for
    that total, and returns a witness iff it is strictly below x in the
    prefix-sum order. Returns None (inconclusive) otherwise.
    """
    from .constructions import hub_fill_sequence, max_added_edges  # only this needs the hub fill

    x = DegreeSequence(x)
    n = len(x)
    s = sum(x)
    if s % 2:
        raise BadSumError(f"total {s} is odd")
    d = (s - 2 * (n - 1)) // 2
    if d < 0 or d > max_added_edges(n):
        raise BadSumError(f"total {s} gives d={d} outside 0..{max_added_edges(n)}")
    w = hub_fill_sequence(n, d)
    if majorized(w, x) and w != x:
        return NonGraphicalWitness(d=d, witness=w)
    return None


def is_c_graphical(x: DegreeSequence) -> bool:
    """Operational test: graphical, all entries positive, total >= 2(N-1).

    A single vertex of degree zero is the one legal all-alone case. The
    enumeration module cross-validates this criterion against the
    ground-truth poset characterization at small sizes.
    """
    x = DegreeSequence(x)
    n = len(x)
    if n == 1:
        return x[0] == 0
    return x[-1] >= 1 and sum(x) >= 2 * (n - 1) and erdos_gallai(x)


# -- realization construction ------------------------------------------------


def _greedy_edges(x: DegreeSequence) -> list[Edge]:
    """Edges of the greedy realization of a graphical x; see realize.

    Degree buckets: buckets[r] is a heap of the vertices with residual r.
    The head is the smallest index in the top bucket, and its targets are
    popped from the buckets downwards, smallest index first, which is the
    (-residual, index) order. Targets go back one bucket lower only after
    all of them are chosen. O((n + m) log n).
    """
    n = len(x)
    top = x[0]
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v in range(n):  # ascending lists are heaps
        buckets[x[v]].append(v)
    edges: list[Edge] = []
    while True:
        while top and not buckets[top]:
            top -= 1
        if top == 0:
            return edges
        u, d = heappop(buckets[top]), top
        targets: list[tuple[int, int]] = []  # (vertex, its residual)
        r = d
        while len(targets) < d and r > 0:
            bucket = buckets[r]
            while bucket and len(targets) < d:
                targets.append((heappop(bucket), r))
            r -= 1
        if len(targets) < d:
            raise InternalInconsistencyError("greedy realization ran out of targets")
        for v, r in targets:
            edges.append((u, v) if u < v else (v, u))
            if r > 1:
                heappush(buckets[r - 1], v)


def realize(x: DegreeSequence) -> SimpleGraph:
    """Greedy head-first realization; vertex v gets the rank v+1 degree.

    The head is the smallest vertex among those of largest residual
    degree; it is joined to the next largest residuals, smaller vertex
    first, and leaves the pool. O((n + m) log n) with degree buckets.
    """
    x = DegreeSequence(x)
    if not erdos_gallai(x):
        raise NotGraphicalError(f"{format_sequence(x)} is not graphical")
    return SimpleGraph(len(x), frozenset(_greedy_edges(x)))


def realize_connected(x: DegreeSequence) -> SimpleGraph:
    """Connected realization via degree-preserving swaps.

    Starts from the greedy realization and repeatedly swaps the
    lexicographically first edge {a,b} on a cycle against the first edge
    {c,d} of another component for {a,c},{b,d}, which merges the two
    components without touching any degree. Feasibility is exactly the
    operational c-graphicality test. The swaps edit one mutable adjacency,
    and each merge runs one union-find pass over it, near-linear in m.
    """
    x = DegreeSequence(x)
    if not is_c_graphical(x):
        raise NotCGraphicalError(f"{format_sequence(x)} is not c-graphical")
    adj = _adjacency_lists(len(x), _greedy_edges(x))
    while True:
        roots, cycle = _components(adj)
        if not any(roots):
            return _freeze(adj)
        if cycle is None:
            raise InternalInconsistencyError("no cycle edge in a graph that must have one")
        a, b = cycle
        # every vertex has degree >= 1, so the first vertex outside a's
        # component starts the first edge outside it
        c = next(v for v, r in enumerate(roots) if r != roots[a])
        d = adj[c][0]
        _unlink(adj, a, b)
        _unlink(adj, c, d)
        _link(adj, a, c)
        _link(adj, b, d)


# -- order-driven rewiring ---------------------------------------------------


def _ranks(adj: Adjacency) -> tuple[list[int], list[int]]:
    """Rank order (descending degree, then index) and its negated degrees."""
    order = sorted(range(len(adj)), key=lambda v: -len(adj[v]))
    return order, [-len(adj[v]) for v in order]


def _rerank(order: list[int], keys: list[int], r: int, d: int) -> None:
    """Move the rank-(r+1) vertex, now of degree d, into d's block by vertex index."""
    v = order.pop(r)
    del keys[r]
    lo = bisect_left(keys, -d)
    slot = bisect_left(order, v, lo, bisect_right(keys, -d, lo))
    order.insert(slot, v)
    keys.insert(slot, -d)


def _inverse_transfer_step(adj: Adjacency, order, keys, i: int, j: int, connected: bool) -> bool:
    """apply_inverse_transfer on adj and its _ranks state, both edited in
    place; returns whether the result is connected, given whether adj is.

    Rank i only falls and rank j only rises, so the precondition reads just
    the pairs (i, i+1) and (j-1, j). A connected result is certified, not
    searched: the edit removes {vi, k} and adds {vj, k}; if the vi-vj path
    P is still present and k is off P and now adjacent to vj, then any w
    still reaches vi (a simple w-vi path uses {vi, k} only as its last
    edge, so w reaches k, then vj, then vi along P). A disconnected graph
    takes a union-find pass, which tells when it becomes connected.
    """
    n = len(adj)
    if not (1 <= i <= n and 1 <= j <= n) or not i < j:
        raise PreconditionViolatedError(f"need ranks 1 <= i < j <= {n}, got i={i}, j={j}")
    new_i, new_j = -keys[i - 1] - 1, -keys[j - 1] + 1
    after_i = new_j if j == i + 1 else -keys[i]
    before_j = new_i if j == i + 1 else -keys[j - 2]
    if new_i < after_i or before_j < new_j:
        raise PreconditionViolatedError(
            "inverse transfer would not produce a non-increasing sequence"
        )
    vi, vj = order[i - 1], order[j - 1]
    path = _path(adj, vi, vj) if connected else (vi, vj)
    excluded = set(path)
    adj_j = set(adj[vj])
    pivot = next((k for k in adj[vi] if k not in adj_j and k not in excluded), None)
    if pivot is None:
        raise InternalInconsistencyError(
            f"no rewiring pivot for ranks {i},{j}; this contradicts the existence argument"
        )
    _unlink(adj, vi, pivot)
    _link(adj, vj, pivot)
    if not connected:
        connected = _connected(adj)
    elif pivot in excluded or pivot not in adj[vj] or any(
        b not in adj[a] for a, b in zip(path, path[1:])
    ):
        raise InternalInconsistencyError("rewired graph lost connectivity")
    _rerank(order, keys, j - 1, new_j)
    _rerank(order, keys, i - 1, new_i)
    return connected


def apply_inverse_transfer(g: SimpleGraph, i: int, j: int) -> SimpleGraph:
    """Rewire g so its degree sequence loses one unit at rank i, gains at rank j.

    If g realizes X' and X' arises from X by a unit transfer moving rank j
    to rank i (i < j), the result realizes X. The rank-r vertex is the
    r-th in descending degree, smaller index first among ties. The pivot k
    is the smallest vertex adjacent to the rank-i vertex, not adjacent to
    the rank-j vertex, and (in the connected case) off the shortest path
    between them; moving the edge (i,k) to (j,k) keeps connectivity, as
    certified along that path. One step of realize_via_domination on a copy of g.
    """
    adj = _thaw(g)
    _inverse_transfer_step(adj, *_ranks(adj), i, j, _connected(adj))
    return _freeze(adj)


def realize_via_domination(x: DegreeSequence, g_prime: SimpleGraph) -> SimpleGraph:
    """Realize x from a realization of a dominating equal-sum sequence.

    Decomposes x <= degree_sequence(g_prime) into unit transfers, then
    undoes them on one mutable copy of the graph from the last to the
    first (apply_inverse_transfer's step), ranks sorted once and then kept
    by moving the two changed vertices. A connected step runs one shortest-
    path BFS and an O(|path|) certificate, a disconnected one a union-find
    connectivity pass. The result has degree sequence x and is connected whenever g_prime
    is; both are checked once at the end.
    """
    x = DegreeSequence(x)
    y = degree_sequence(g_prime)
    chain = decompose_into_basic_transfers(x, y)
    adj = _thaw(g_prime)
    order, keys = _ranks(adj)
    connected = _connected(adj)
    for t in reversed(chain.steps):
        connected = _inverse_transfer_step(adj, order, keys, t.to_rank, t.from_rank, connected)
    if DegreeSequence(len(nbrs) for nbrs in adj) != x:
        raise InternalInconsistencyError("domination pipeline produced wrong degrees")
    if connected and not _connected(adj):
        raise InternalInconsistencyError("rewired graph lost connectivity")
    return _freeze(adj)
