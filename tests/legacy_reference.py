"""Verbatim copies of the first, quadratic realization and transfer code.

These are the reference implementations the pinning tests compare
against: the library's rewritten `realize`, `realize_connected`,
`decompose_into_basic_transfers`, `apply_inverse_transfer` and
`realize_via_domination` must give exactly the same edge sets and chains.
The bodies are kept as they were (greedy realization re-sorting every
vertex per head, one edge removal and one BFS per candidate cycle edge,
one deficit profile per unit transfer, one graph copy per rewiring step);
only the imports differ. Do not optimize them.
"""

from degseq.errors import (
    InternalInconsistencyError,
    LengthMismatchError,
    NoPathError,
    NotCGraphicalError,
    NotGraphicalError,
    NotMajorizedError,
    PreconditionViolatedError,
    SumMismatchError,
)
from degseq.graphs import (
    SimpleGraph,
    add_edge,
    component_labels,
    degree_sequence,
    find_path,
    is_connected,
    remove_edge,
    two_swap,
)
from degseq.orders import (
    BasicTransfer,
    DegreeSequence,
    TransferChain,
    format_sequence,
    majorized,
)
from degseq.realizability import erdos_gallai, is_c_graphical


def realize(x: DegreeSequence) -> SimpleGraph:
    """Greedy head-first realization; vertex v gets the rank v+1 degree."""
    x = DegreeSequence(x)
    if not erdos_gallai(x):
        raise NotGraphicalError(f"{format_sequence(x)} is not graphical")
    n = len(x)
    residual = list(x)
    edges: set[tuple[int, int]] = set()
    while True:
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        u = order[0]
        d = residual[u]
        if d == 0:
            break
        targets = [v for v in order[1:] if residual[v] > 0][:d]
        if len(targets) < d:
            raise InternalInconsistencyError("greedy realization ran out of targets")
        for v in targets:
            edges.add((u, v) if u < v else (v, u))
            residual[v] -= 1
        residual[u] = 0
    return SimpleGraph(n, frozenset(edges))


def _first_cycle_edge(g: SimpleGraph) -> tuple[int, int]:
    """Lexicographically first non-bridge edge; exists whenever some
    component carries a cycle."""
    for u, v in g.sorted_edges():
        h = remove_edge(g, u, v)
        try:
            find_path(h, u, v)
        except NoPathError:
            continue
        return (u, v)
    raise InternalInconsistencyError("no cycle edge in a graph that must have one")


def realize_connected(x: DegreeSequence) -> SimpleGraph:
    """Connected realization via degree-preserving swaps.

    Starts from the greedy realization and repeatedly swaps a cycle edge
    against the first edge of another component, which merges components
    without touching any degree. Feasibility is exactly the operational
    c-graphicality test.
    """
    x = DegreeSequence(x)
    if not is_c_graphical(x):
        raise NotCGraphicalError(f"{format_sequence(x)} is not c-graphical")
    g = realize(x)
    labels = component_labels(g)
    while max(labels) > 0:
        cyc = _first_cycle_edge(g)
        cid = labels[cyc[0]]
        cross = next(e for e in g.sorted_edges() if labels[e[0]] != cid)
        g = two_swap(g, cyc, cross)
        labels = component_labels(g)
    return g


def ranked_vertices(g: SimpleGraph) -> tuple[int, ...]:
    """Vertices sorted by descending degree, index as tiebreak.

    Position r-1 of the result is "the vertex at rank r" of the sorted
    degree sequence.
    """
    return tuple(sorted(range(g.n), key=lambda v: (-g.degree(v), v)))


def apply_inverse_transfer(g: SimpleGraph, i: int, j: int) -> SimpleGraph:
    """Rewire g so its degree sequence loses one unit at rank i, gains at rank j.

    If g realizes X' and X' arises from X by a unit transfer moving rank j
    to rank i (i < j), the result realizes X. The pivot k is the smallest
    vertex adjacent to the rank-i vertex, not adjacent to the rank-j
    vertex, and (in the connected case) off the shortest path between
    them; moving the edge from (i,k) to (j,k) preserves connectivity.
    """
    n = g.n
    if not (1 <= i <= n and 1 <= j <= n) or not i < j:
        raise PreconditionViolatedError(f"need ranks 1 <= i < j <= {n}, got i={i}, j={j}")
    ranks = ranked_vertices(g)
    degs = [g.degree(v) for v in ranks]
    target = list(degs)
    target[i - 1] -= 1
    target[j - 1] += 1
    if any(target[k] < target[k + 1] for k in range(n - 1)):
        raise PreconditionViolatedError(
            "inverse transfer would not produce a non-increasing sequence"
        )
    vi, vj = ranks[i - 1], ranks[j - 1]
    connected = is_connected(g)
    if connected:
        excluded = set(find_path(g, vi, vj))
    else:
        excluded = {vi, vj}
    adj_j = set(g.neighbors(vj))
    pivot = None
    for k in g.neighbors(vi):
        if k != vj and k not in adj_j and k not in excluded:
            pivot = k
            break
    if pivot is None:
        raise InternalInconsistencyError(
            f"no rewiring pivot for ranks {i},{j}; this contradicts the existence argument"
        )
    h = add_edge(remove_edge(g, vi, pivot), vj, pivot)
    if connected and not is_connected(h):
        raise InternalInconsistencyError("rewired graph lost connectivity")
    return h


def decompose_into_basic_transfers(x: DegreeSequence, y: DegreeSequence) -> TransferChain:
    """Write y as x plus a chain of unit transfers.

    Requires equal totals and x <= y in the prefix-sum order. Each round
    finds the first rank i whose running total still falls short of the
    target, the first later rank j where the two running totals agree, and
    moves one unit from j to i. Every intermediate stays sorted and sits
    between x and y in the order, and the resulting chain has the minimum
    possible number of unit transfers.
    """
    if len(x) != len(y):
        raise LengthMismatchError(f"lengths differ: {len(x)} vs {len(y)}")
    if sum(x) != sum(y):
        raise SumMismatchError(f"totals differ: {sum(x)} vs {sum(y)}")
    if not majorized(x, y):
        raise NotMajorizedError(f"{format_sequence(x)} is not below {format_sequence(y)}")
    n = len(x)
    cur = list(x)
    steps: list[BasicTransfer] = []
    while True:
        deficits = []
        ax = ay = 0
        for k in range(n):
            ax += cur[k]
            ay += y[k]
            deficits.append(ay - ax)
        i = next((k for k in range(n) if deficits[k] > 0), None)
        if i is None:
            break
        j = next(k for k in range(i + 1, n) if deficits[k] == 0)
        cur[i] += 1
        cur[j] -= 1
        steps.append(BasicTransfer(to_rank=i + 1, from_rank=j + 1))
    return TransferChain(start=DegreeSequence(x), steps=tuple(steps))


def realize_via_domination(x: DegreeSequence, g_prime: SimpleGraph) -> SimpleGraph:
    """Realize x from a realization of a dominating equal-sum sequence.

    Decomposes x <= degree_sequence(g_prime) into unit transfers, then
    undoes them on the graph from the last to the first. The result has
    degree sequence exactly x and is connected whenever g_prime is.
    """
    x = DegreeSequence(x)
    y = degree_sequence(g_prime)
    chain = decompose_into_basic_transfers(x, y)
    g = g_prime
    for t in reversed(chain.steps):
        g = apply_inverse_transfer(g, t.to_rank, t.from_rank)
    if degree_sequence(g) != x:
        raise InternalInconsistencyError("domination pipeline produced wrong degrees")
    return g
