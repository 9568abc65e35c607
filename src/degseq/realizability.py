"""Graphicality tests, realizations, reductions, and order-based rewiring.

The classical Erdős–Gallai inequalities and the Havel–Hakimi reduction
decide whether a sequence is graphical; the two must agree everywhere and
the test suite sweeps them against each other exhaustively at small sizes.
On top of those sit a generalized reduction (any rank, any number of
removed links, in the Wang–Kleitman style), a faster reduce-to-constant
strategy, a majorization-based non-graphicality witness, the realizations,
which iterate that reduction at the last rank and so build a connected
realization of every c-graphical sequence directly, and the constructive
pipeline that turns a dominating connected realization into a realization
of any dominated sequence by rewiring one unit transfer at a time. Each
graph is built as the larger-neighbor lists a SimpleGraph stores and
checked once by graphs._check_realization; a realization certificate is the
graph itself.
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
    SimpleGraph,
    _check_realization,
    _components,
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
    certificate: ReductionTrace | NonGraphicalWitness | SimpleGraph | None

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
                "realization": SimpleGraph.from_dict,
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
    Parity is not checked here.

    The scan stops at the first k with x_k < k, once inequalities 1..k-1
    hold: then every later entry is at most k-1 too, so from inequality
    k-1 to k the left side grows by x_k and the right side by 2(k-1) - x_k
    >= x_k, and inequality k-1 implies k and, the same way, every later
    one. So it runs at most h+1 rounds for the Durfee number h <= √(sum x).
    While x_k >= k, the q >= k entries >= k are counted by binary search in
    the ascending copy of x, and the tail sum is k(q-k) plus the sum of the
    entries below k, read off that copy's prefix sums (Tripathi & Vijay
    2003): O(h log N) Python steps after O(N) C-level work.
    """
    x = DegreeSequence(x)
    n = len(x)
    ascending = x[::-1]
    below = list(accumulate(ascending, initial=0))  # below[m]: the m smallest entries' sum
    prefix = 0
    for k, v in enumerate(x, 1):
        if v < k:
            return None
        prefix += v
        m = bisect_left(ascending, k)  # the entries below k
        rhs = k * (k - 1) + k * (n - m - k) + below[m]
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


_Reduction = namedtuple("_Reduction", "graphical outcome states rules printed")


def _reduction(x: DegreeSequence, constant: bool, keep: float = float("inf")) -> _Reduction:
    """The head reduction of x, or with constant the reduce-to-constant one, on
    runs of equal values, for `check` and havel_hakimi. states[i] is the
    chain's i-th sequence as a (values, counts) pair and rules[i] the rule to
    states[i + 1]; both are emptied once printed, the integers of every step's
    before and after, exceeds keep.

    values (strictly decreasing), counts and ends (ends[k] is the position
    after run k, counted from where the first step began) are edited in place,
    and a state is copied only when kept, so keep=0 holds O(r) memory for r
    distinct values. A step takes the head out and subtracts one from the links
    largest remaining entries. The run of the last lowered value v is split,
    its unlowered part first (the same multiset as lowering its rightmost
    copies); only that part and the run below can meet an equal neighbour. A
    step costs one binary search, O(r) C-level list work and one comprehension
    over the lowered runs. When a lowered entry would be zero it stops with
    only the head taken out, so the outcome still reads the last value from
    before the step. A constant step's head h makes h - last links and then
    rejoins the last run, of value last, which no step removes.
    """
    runs = Counter(x)  # keeps first-seen order, which is decreasing
    values, counts, n = list(runs), list(runs.values()), len(x)
    ends = list(accumulate(counts))
    states, rules, printed = [(values[:], counts[:])], [], 0
    # step while the head fits and the sequence is not yet constant (constant) or all zero (hh)
    while (h := values[0]) <= n - 1 and ((last := values[-1]) < h if constant else h > 0):
        links = h - last if constant else h
        if counts[0] > 1:  # take the head out; the last run stays (n >= 2 entries)
            counts[0] -= 1
        else:
            del values[0], counts[0], ends[0]
        start = ends[0] - counts[0]  # where the remaining entries begin
        i = bisect_left(ends, start + links)  # the run of the last lowered entry
        v = values[i]
        if v == 0:
            break
        left = start + links - ends[i] + counts[i]  # its lowered copies
        values[:i] = [u - 1 for u in values[:i]]
        if left < counts[i]:  # the unlowered copies of v stay before the lowered ones
            if i and values[i - 1] == v:
                counts[i - 1] += counts[i] - left
                ends[i - 1] += counts[i] - left
            else:
                values.insert(i, v)
                counts.insert(i, counts[i] - left)
                ends.insert(i, ends[i] - left)
                i += 1
            counts[i] = left
        values[i] = v - 1
        if i + 1 < len(values) and values[i + 1] == v - 1:
            counts[i] += counts[i + 1]
            ends[i] = ends[i + 1]
            del values[i + 1], counts[i + 1], ends[i + 1]
        if constant:  # h <= n - 1 leaves >= last entries unlowered, and lowering a zero breaks
            # first: the run of last survives, and only its lowered part (last - 1) can follow it
            k = -1 if values[-1] == last else -2
            counts[k] += 1
            ends[k:] = [e + 1 for e in ends[k:]]
        printed += 2 * n - (not constant)
        if printed <= keep:
            states.append((values[:], counts[:]))
            rules.append(f"reduce(k=1,n={links})" if constant else "hh")
        elif states:  # over keep: no trace will be printed
            states.clear()
            rules.clear()
        n -= not constant
    return _Reduction(*_outcome(x, constant, h, values[-1], n), states, rules, printed)


def _rendered_steps(states: list, rules: list[str], sep: str):
    """Yield (before, rule, after) per step of a _reduction chain, each
    sequence rendered once from its (values, counts) pair, entries joined by
    sep. A chain with a step starts with a head below its length and no
    step raises an entry, so the table of entry texts stays that short."""
    if not rules:
        return
    texts = [sep + str(v) for v in range(states[0][0][0] + 1)].__getitem__
    rendered = ("".join(map(mul, map(texts, v), c))[len(sep) :] for v, c in states)
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
    reduce-to-constant one (generalized_reduce(cur, 1, h - x_N)), every step kept."""
    steps, cur = [], x
    while (h := cur[0]) <= len(cur) - 1 and (cur[-1] < h if constant else h > 0):
        links = h - cur[-1] if constant else h
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

    Each step reduces rank 1 by n = x_1 - x_N, at most N-1 since steps run
    only while x_1 <= N-1. A constant block (a,...,a) of length N is graphical
    iff a <= N-1 and N*a is even, often far sooner than the head reduction.

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

    The conditions are necessary, and the smallest-first greedy of realize
    proves them sufficient: it builds a connected realization of every
    such sequence (see _greedy). A single vertex of degree zero is the one
    legal all-alone case. The enumeration module cross-validates this
    criterion against the ground-truth poset characterization at small
    sizes.
    """
    x = DegreeSequence(x)
    n = len(x)
    if n == 1:
        return x[0] == 0
    return x[-1] >= 1 and sum(x) >= 2 * (n - 1) and erdos_gallai(x)


# -- realization construction ------------------------------------------------


def _greedy(x: DegreeSequence) -> Adjacency:
    """Per vertex u, the ascending list of its neighbors v > u in the
    smallest-first greedy realization of a graphical x; see realize.

    Each step lays off a head u of smallest positive residual d onto the d
    other vertices of largest residual: generalized_reduce at the last
    positive rank. Laying off any vertex that way keeps a graphical sequence
    graphical (Kleitman and Wang, Discrete Math. 6, 1973), so every
    graphical x is realized. A c-graphical x comes out connected, by
    induction on n (n <= 2 is clear):
    - After u is laid off, the rest has total at least 2(n-2): either d = 1
      and the total was at least 2(n-1), or d >= 2 and it was at least nd.
      So the positive part of the rest is positive, graphical and of total
      at least 2(|support|-1), and the induction realizes it connected.
    - A target whose residual reaches 0 hangs on u, and u reaches the
      positive part through any other target.
    - The one exception is every target reaching 0. Targets have the
      largest residuals, so that needs x = (1,...,1) with n >= 3, whose
      total n is below 2(n-1).

    Degree buckets: buckets[r] is a heap of the vertices with residual r.
    The head is the smallest index in the lowest nonempty bucket above 0,
    and its targets are popped from the top bucket downwards, smallest
    index first, which is the (-residual, index) order. Targets go back one
    bucket lower only after all of them are chosen, so no positive
    residual is then below d - 1. Each edge goes on the list of its smaller
    end; heads need not come in index order, so each list is sorted once at
    the end. O((n + m) log n).
    """
    n = len(x)
    top, low = x[0], 1
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v in range(n):  # ascending lists are heaps
        buckets[x[v]].append(v)
    up: Adjacency = [[] for _ in range(n)]
    while True:
        while top and not buckets[top]:
            top -= 1
        if top == 0:
            break
        while not buckets[low]:
            low += 1
        u, d = heappop(buckets[low]), low
        targets: list[tuple[int, int]] = []  # (vertex, its residual)
        r = top
        while len(targets) < d and r > 0:
            bucket = buckets[r]
            while bucket and len(targets) < d:
                targets.append((heappop(bucket), r))
            r -= 1
        if len(targets) < d:
            raise InternalInconsistencyError("greedy realization ran out of targets")
        for v, r in targets:
            if u < v:
                up[u].append(v)
            else:
                up[v].append(u)
            if r > 1:
                heappush(buckets[r - 1], v)
        low = d - 1 or 1
    for vs in up:
        vs.sort()
    return up


def _realization(x: DegreeSequence, connected: bool) -> Adjacency:
    """_built(x, connected) once the one test passes: is_c_graphical with
    connected, else Erdős–Gallai. Otherwise the error of realize, or with
    connected of realize_connected, which formats the whole sequence."""
    if connected and not is_c_graphical(x):
        raise NotCGraphicalError(f"{format_sequence(x)} is not c-graphical")
    if not connected and not erdos_gallai(x):
        raise NotGraphicalError(f"{format_sequence(x)} is not graphical")
    return _built(x, connected)


def _built(x: DegreeSequence, connected: bool) -> Adjacency:
    """realize(x) as its larger-neighbor lists, for an x that passed the test,
    checked by _check_realization and, with connected, for connectivity."""
    up = _greedy(x)
    _check_realization(x, up)
    if connected and any(_components(up)):
        raise InternalInconsistencyError("the greedy realization is disconnected")
    return up


def realize(x: DegreeSequence) -> SimpleGraph:
    """Smallest-first greedy realization; vertex v gets the rank v+1 degree.

    The head is the smallest vertex among those of smallest positive
    residual degree; it is joined to the largest other residuals, smaller
    vertex first, and leaves the pool. The result is connected whenever x
    is c-graphical, so it equals realize_connected(x) then. O((n + m) log n)
    with degree buckets, on lists of larger neighbors that are checked and
    frozen once.
    """
    return _freeze(_realization(DegreeSequence(x), False))


def realize_connected(x: DegreeSequence) -> SimpleGraph:
    """Connected realization: realize(x), for a c-graphical x.

    The smallest-first greedy proves is_c_graphical's test sufficient by
    construction (see _greedy); one union-find pass confirms the
    connectivity, and the lists are checked and frozen once.
    """
    return _freeze(_realization(DegreeSequence(x), True))


# -- order-driven rewiring ---------------------------------------------------


def _inverse_transfer_step(adj: Adjacency, vi: int, vj: int) -> None:
    """Shift one degree unit from vi to vj, deg vi >= deg vj + 2, in place:
    the edge {vi, k} becomes {vj, k}, k the smallest neighbor of vi outside
    N[vj] and off the shortest vi-vj path P (() if there is none).

    k exists: deg vi >= deg vj + 2 leaves two neighbors of vi outside
    N[vj], and P holds one neighbor of vi, P[1]. The edit adds no
    component, as an O(|P|) certificate shows. If P is still present and k
    is now adjacent to vj, any w still reaches vi (a simple w-vi path uses
    {vi, k} only as its last edge, so w reaches k, then vj, then vi along
    P). With no P, removing {vi, k} splits off at most the part holding k,
    and {vj, k} joins that part to vj's component.
    """
    path = _path(adj, vi, vj)
    excluded = {*path, *adj[vj]}
    pivot = next((k for k in adj[vi] if k not in excluded), None)
    if pivot is None:
        raise InternalInconsistencyError(
            f"no rewiring pivot for vertices {vi},{vj}; this contradicts the existence argument"
        )
    _unlink(adj, vi, pivot)
    _link(adj, vj, pivot)
    if pivot not in adj[vj] or any(b not in adj[a] for a, b in pairwise(path)):
        raise InternalInconsistencyError("rewired graph lost connectivity")


def apply_inverse_transfer(g: SimpleGraph, i: int, j: int) -> SimpleGraph:
    """Rewire g so its degree sequence loses one unit at rank i, gains at rank j.

    If g realizes X' and X' arises from X by a unit transfer moving rank j
    to rank i (i < j), the result realizes X; the ranks must leave X
    non-increasing. The rank-r vertex is the r-th in descending degree,
    smaller index first among ties. This is realize_via_domination(X, g),
    one step: the edge {vi, k} moves to {vj, k}, k the smallest neighbor
    of vi outside N[vj] and off the shortest vi-vj path, adding no component.
    """
    x = list(degree_sequence(g))
    n = len(x)
    if not (1 <= i <= n and 1 <= j <= n) or not i < j:
        raise PreconditionViolatedError(f"need ranks 1 <= i < j <= {n}, got i={i}, j={j}")
    x[i - 1] -= 1
    x[j - 1] += 1
    if x[i - 1] < x[i] or x[j - 2] < x[j - 1]:
        raise PreconditionViolatedError(
            "inverse transfer would not produce a non-increasing sequence"
        )
    return realize_via_domination(x, g)


def realize_via_domination(x: DegreeSequence, g_prime: SimpleGraph) -> SimpleGraph:
    """Realize x from a realization of a dominating equal-sum sequence.

    Thaws g_prime once, from g_prime.up, into one mutable copy (nothing is
    cached on g_prime), sorts its vertices once, by descending degree and
    then index, and decomposes x <= the degrees along that order into unit
    transfers. Undoing them from the last to the first, the one to rank i
    from rank j moves a unit from vi = order[i-1] to vj = order[j-1]. The
    degrees along order are always the chain's current sequence z, sorted
    before and after each step, so deg vi >= deg vj + 2; and vi, vj are the
    vertices that re-sorting by (descending degree, index) after every step
    would pick. Reversed, the chain takes the largest start i left and, for
    it, the smallest end j: z_i > x_i, z_k = x_k for i < k < j, and z_j <
    x_j, and only ranks >= i have changed, each monotonically toward x. So
    the giver's degree class [a, i] is untouched, in the host's order by
    index, or {i} alone once vi has given: vi has its largest index. The
    receiver's class [j, b] has no changed rank after j, or is {j} alone
    once vj has received: vj has its smallest index.

    Each step runs one shortest-path search and an O(|path|) certificate
    that it adds no component (see _inverse_transfer_step). At the end,
    vertex order[r] must have degree x[r]: the full lists' lengths and the
    larger-neighbor halves frozen from them are checked against that, vertex
    by vertex, so a one-sided edit fails. The result, connected or not, may
    not have more components than g_prime.
    """
    x = DegreeSequence(x)
    adj = _thaw(g_prime)
    order = sorted(range(len(adj)), key=lambda v: -len(adj[v]))
    start = DegreeSequence._from_sorted([len(adj[v]) for v in order])
    chain = decompose_into_basic_transfers(x, start)
    components = len(set(_components(adj)))
    for t in reversed(chain.steps):
        _inverse_transfer_step(adj, order[t.to_rank - 1], order[t.from_rank - 1])
    want = [0] * len(adj)
    for v, d in zip(order, x):
        want[v] = d
    if list(map(len, adj)) != want:
        raise InternalInconsistencyError("domination pipeline produced wrong degrees")
    up = [nbrs[bisect_right(nbrs, u) :] for u, nbrs in enumerate(adj)]
    _check_realization(want, up)
    if len(set(_components(up))) > components:
        raise InternalInconsistencyError("rewired graph lost connectivity")
    return _freeze(up)
