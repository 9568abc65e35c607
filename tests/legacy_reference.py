"""Verbatim copies of earlier library code, kept as pinning references,
and two references written from a definition.

The pinning tests compare the library against these:
- the smallest-first greedy realization (`smallest_first_realization`), a
  plain re-sorting reference written from its definition, not earlier
  library code: `realize` and `realize_connected` must give exactly the
  same edge sets and raise the same errors;
- the first, quadratic transfer code: the rewritten
  `decompose_into_basic_transfers` must give exactly the same chains, and
  `apply_inverse_transfer` and `realize_via_domination` the same edge
  sets on connected hosts and in the exhaustive sweeps of small hosts.
  The bodies are kept as they were (one deficit profile per unit
  transfer, one graph copy per rewiring step);
- the shortest-path rewiring on any host (`rewiring_reference`), a plain
  reference written from its rule, not earlier library code: on a
  disconnected host, where the first code excluded no path from the
  pivot, `realize_via_domination` must give the same edge sets;
- the immutable graph edits these use (`add_edge`, `remove_edge`,
  `find_path`), each of which copies the whole edge set, with the error
  only they raise;
- the re-sorting reductions (`hh_reduce`, `generalized_reduce`,
  `havel_hakimi_trace`, `reduce_to_constant`) and the `check` command's
  rendering of their traces (`format_sequence`, `_print_trace`,
  `_cmd_check`, and `main`'s exit-code mapping): `degseq check --method
  hh|constant` must print the same bytes on stdout and stderr and exit
  with the same code;
- the graphs oracle's plain depth-first search over degree-ordered
  labelings (`sequences_by_graphs`), which tests each new degree vector
  for connectivity with one union-find pass: the memoized
  `maximal._sequences_by_graphs` must return the same set.
Only the imports differ, and a call to one of the copied functions resolves
to its copy here. Do not optimize them.
"""

import itertools
import json
import sys
from typing import Iterable

from degseq import realizability
from degseq.cli import EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, build_parser
from degseq.errors import (
    BadCountError,
    BadRankError,
    BadSumError,
    DegseqError,
    EdgeExistsError,
    HeadTooLargeError,
    InternalInconsistencyError,
    LengthMismatchError,
    NotCGraphicalError,
    NotGraphicalError,
    NotMajorizedError,
    OracleMismatchError,
    PreconditionViolatedError,
    SelfLoopError,
    SumMismatchError,
    UnderflowError,
)
from degseq.graphs import (
    SimpleGraph,
    VertexPath,
    _components,
    _path,
    degree_sequence,
    is_connected,
)
from degseq.orders import (
    BasicTransfer,
    DegreeSequence,
    TransferChain,
    majorized,
    parse_sequence,
)
from degseq.realizability import (
    ReductionTrace,
    TraceStep,
    Verdict,
    erdos_gallai,
    is_c_graphical,
)


class EdgeMissingError(DegseqError):
    """Attempt to remove or rewire an edge that is not present."""


def _norm(u: int, v: int) -> tuple[int, int]:  # the library's former graphs._norm
    return (u, v) if u < v else (v, u)


def find_path(g: SimpleGraph, i: int, j: int) -> VertexPath:
    """Shortest path from i to j (BFS, ascending neighbor order).

    The inverse-transfer rewiring relies on this being a shortest path:
    on a shortest path no two non-consecutive vertices are adjacent, which
    is what makes the rewiring pivot always exist.
    """
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError(f"vertex pair ({i},{j}) outside vertex range")
    return _path(g._adjacency, i, j)


def add_edge(g: SimpleGraph, u: int, v: int) -> SimpleGraph:
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    e = _norm(u, v)
    if not (0 <= e[0] and e[1] < g.n):
        raise ValueError(f"edge {e} outside vertex range")
    if e in g.edges:
        raise EdgeExistsError(f"edge {e} already present")
    return SimpleGraph(g.n, g.edges | {e})


def remove_edge(g: SimpleGraph, u: int, v: int) -> SimpleGraph:
    e = _norm(u, v)
    if e not in g.edges:
        raise EdgeMissingError(f"edge {e} not present")
    return SimpleGraph(g.n, g.edges - {e})


def format_sequence(seq: Iterable[int]) -> str:
    return ",".join(str(v) for v in seq)


def smallest_first_realization(x: DegreeSequence, connected: bool = False) -> SimpleGraph:
    """The smallest-first greedy realization, written from its definition.

    Not earlier library code: a plain reference for `realize` and
    `realize_connected`. Each step re-sorts every vertex; the head is the
    smallest vertex among those of smallest positive residual d, and it is
    joined to the d other vertices of largest residual, smaller vertex
    first. With connected, x must pass the c-graphicality test instead of
    Erdős–Gallai, and the graph is the same.
    """
    x = DegreeSequence(x)
    if connected and not is_c_graphical(x):
        raise NotCGraphicalError(f"{format_sequence(x)} is not c-graphical")
    if not connected and not erdos_gallai(x):
        raise NotGraphicalError(f"{format_sequence(x)} is not graphical")
    n = len(x)
    residual = list(x)
    edges: set[tuple[int, int]] = set()
    while any(residual):
        u = min((v for v in range(n) if residual[v]), key=lambda v: (residual[v], v))
        d = residual[u]
        residual[u] = 0
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        targets = [v for v in order if residual[v] > 0][:d]
        if len(targets) < d:
            raise InternalInconsistencyError("greedy realization ran out of targets")
        for v in targets:
            edges.add(_norm(u, v))
            residual[v] -= 1
    return SimpleGraph(n, frozenset(edges))


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


def rewiring_reference(x: DegreeSequence, g_prime: SimpleGraph) -> SimpleGraph:
    """The shortest-path rewiring, written from its rule.

    Not earlier library code: a plain reference for `realize_via_domination`
    on any host, connected or not. It undoes the unit transfers of
    x <= degree_sequence(g_prime) from the last to the first. For the
    transfer from rank j to rank i, vi and vj are the rank-i and rank-j
    vertices, and P is the BFS path from vi to vj (neighbors in ascending
    order, the first visit sets the parent), or () when vj is not
    reachable. The pivot is the smallest neighbor of vi that is neither
    adjacent to vj nor on P, and the edge {vi, pivot} becomes {vj, pivot}.
    """
    g = g_prime
    for t in reversed(decompose_into_basic_transfers(x, degree_sequence(g)).steps):
        ranks = ranked_vertices(g)
        vi, vj = ranks[t.to_rank - 1], ranks[t.from_rank - 1]
        path = bfs_path(g._adjacency, vi, vj)
        pivot = min(k for k in g.neighbors(vi) if k not in g.neighbors(vj) and k not in path)
        g = add_edge(remove_edge(g, vi, pivot), vj, pivot)
    return g


def bfs_path(adj, i: int, j: int) -> VertexPath:
    """The BFS path from i to j over the ascending neighbor lists adj,
    written from its rule: the whole component is searched, and the first
    visit of a vertex sets its parent; () when j is not reachable."""
    parent = {i: None}
    queue = [i]
    for u in queue:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    path = [j] if j in parent else []
    while path and parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


# -- re-sorting reductions and their rendering by `check` ------------------


def hh_reduce(x: DegreeSequence) -> DegreeSequence:
    """Drop the head h and subtract one from the next h entries.

    The result has length N-1 and is re-sorted. Raises HeadTooLargeError
    when h > N-1 and UnderflowError when fewer than h of the remaining
    entries are positive; both conditions imply the input is not graphical.
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
    vals = [x[idx] - 1 if idx <= h else x[idx] for idx in range(1, n)]
    return DegreeSequence(vals)


def havel_hakimi_trace(x: DegreeSequence) -> tuple[bool, ReductionTrace]:
    """Iterate the head reduction to a verdict, recording every step."""
    cur = DegreeSequence(x)
    steps: list[TraceStep] = []
    while True:
        n = len(cur)
        if all(v == 0 for v in cur):
            return True, ReductionTrace(tuple(steps), "all-zero")
        if cur[0] > n - 1:
            return False, ReductionTrace(tuple(steps), f"reject: head {cur[0]} exceeds {n - 1}")
        try:
            nxt = hh_reduce(cur)
        except UnderflowError:
            return False, ReductionTrace(
                tuple(steps), f"reject: not enough positive entries for head {cur[0]}"
            )
        steps.append(TraceStep(cur, "hh", nxt))
        cur = nxt


def generalized_reduce(x: DegreeSequence, k: int, n_links: int) -> DegreeSequence:
    """Lower rank k by n_links and subtract one from the n_links largest others.

    Keeps the vertex (so the result has length N and may contain a zero when
    n_links equals the rank-k value) and re-sorts. Graphicality is preserved
    in both directions. Ties are broken leftmost, which does not affect the
    resulting multiset.
    """
    x = DegreeSequence(x)
    n = len(x)
    if not 1 <= k <= n:
        raise BadRankError(f"rank k={k} outside 1..{n}")
    if not 1 <= n_links <= x[k - 1]:
        raise BadCountError(f"n={n_links} outside 1..{x[k - 1]} for rank {k}")
    if n_links > n - 1:
        raise BadCountError(f"n={n_links} exceeds the {n - 1} other entries")
    others = [idx for idx in range(n) if idx != k - 1]
    top = others[:n_links]
    if any(x[idx] == 0 for idx in top):
        raise UnderflowError("a targeted entry is already zero")
    vals = list(x)
    vals[k - 1] -= n_links
    for idx in top:
        vals[idx] -= 1
    return DegreeSequence(vals)


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
    outcome records which rule decided.
    """
    x = DegreeSequence(x)
    steps: list[TraceStep] = []
    cur = x
    while True:
        n = len(cur)
        if cur[0] > n - 1:
            graphical, outcome = False, f"reject: head {cur[0]} exceeds {n - 1}"
            break
        if cur[0] == cur[-1]:
            a = cur[0]
            if (n * a) % 2:
                graphical, outcome = False, f"constant a={a}, N*a={n * a} odd: not graphical"
            elif not erdos_gallai(x):
                graphical, outcome = False, (
                    f"constant a={a}, N*a={n * a} even, but exact inequalities "
                    "refute graphicality (partial reductions are one-way)"
                )
            else:
                graphical, outcome = True, f"constant a={a}, N*a={n * a} even, a<={n - 1}"
            break
        n_links = min(cur[0] - cur[-1], n - 1)
        try:
            nxt = generalized_reduce(cur, 1, n_links)
        except UnderflowError:
            graphical, outcome = False, f"reject: not enough positive entries for head {cur[0]}"
            break
        steps.append(TraceStep(cur, f"reduce(k=1,n={n_links})", nxt))
        cur = nxt
    return Verdict(x, graphical, None, "constant-reduction", ReductionTrace(tuple(steps), outcome))


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _parse_seq(args, literal: str) -> DegreeSequence:
    # "-" reads the literal from stdin, for sequences past the argv size cap;
    # a second "-" in one command finds stdin drained and is a usage error
    if literal == "-":
        literal = sys.stdin.read()
    seq, already_sorted = parse_sequence(literal)
    if not already_sorted:
        _note(args, f"note: input reordered to {format_sequence(seq)}")
    return seq


def _print_trace(trace: realizability.ReductionTrace) -> None:
    for step in trace.steps:
        _emit(
            f"  {format_sequence(step.before)} -[{step.rule}]-> {format_sequence(step.after)}"
        )
    _emit(f"  {trace.outcome}")


def _cmd_check(args) -> int:
    seq = _parse_seq(args, args.sequence)
    method = args.method
    certificate = None
    if method == "hh":
        graphical, certificate = havel_hakimi_trace(seq)
    elif method == "constant":
        verdict = reduce_to_constant(seq)
        graphical, certificate = verdict.graphical, verdict.certificate
    else:  # eg, certificate
        graphical = realizability.erdos_gallai(seq)
        if method == "certificate" and not graphical:
            try:
                certificate = realizability.non_graphical_certificate(seq)
            except BadSumError:  # odd total, or no hub fill has this total
                pass

    c_graphical = None
    if args.connected:
        c_graphical = graphical and realizability.is_c_graphical(seq)
        if c_graphical:
            certificate = realizability.realize_connected(seq)
    verdict = realizability.Verdict(seq, graphical, c_graphical, method, certificate)
    inconclusive = method == "certificate" and certificate is None

    if args.json:
        payload = verdict.to_dict()
        if inconclusive:
            payload["conclusive"] = False
        _emit(json.dumps(payload, sort_keys=True))
    else:
        _emit(f"sequence: {format_sequence(seq)}")
        _emit(f"graphical: {'yes' if graphical else 'no'} (method: {method})")
        if args.connected:
            _emit(f"c-graphical: {'yes' if c_graphical else 'no'}")
        if isinstance(certificate, realizability.ReductionTrace):
            _print_trace(certificate)
        elif isinstance(certificate, realizability.NonGraphicalWitness):
            _emit(f"witness: {format_sequence(certificate.witness)} (d={certificate.d})")
        elif isinstance(certificate, SimpleGraph):
            _emit("realization: " + " ".join(f"{u}-{v}" for u, v in certificate.sorted_edges()))
        elif inconclusive:
            _emit("inconclusive: no domination witness")
    negative = (not graphical) or (args.connected and not c_graphical)
    return EXIT_NEGATIVE if negative and not inconclusive else EXIT_OK


def main(argv: list[str]) -> int:
    """`degseq` with every command line routed to the `_cmd_check` copy."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return _cmd_check(args)
    except (OracleMismatchError, InternalInconsistencyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DegseqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def sequences_by_graphs(n: int, d: int) -> frozenset[DegreeSequence]:
    deg = [0] * n
    above: list[tuple[int, ...]] = [()] * n  # the later neighbours chosen for i, ascending
    confirmed: set[tuple[int, ...]] = set()

    def block(i: int, left: int) -> None:
        # the pairs (k, i) with k < i are decided; pick i's later neighbours
        if i == n - 1:
            key = tuple(deg)
            if left == 0 and deg[i] and key not in confirmed and not any(_components(above)):
                confirmed.add(key)
            return
        later = range(i + 1, n)
        rest = deg[i + 1 :]
        high = max(rest)
        base = sum(rest)
        room = deg[i - 1] - deg[i] if i else len(later)
        for size in range(min(room, len(later), left) + 1):
            # deg[i] ends at top: prune on a zero, on a later vertex above
            # top, and on more edges left than the later vertices can take
            # when each is capped at top; a later vertex already at top
            # cannot be chosen
            top = deg[i] + size
            if top == 0 or high > top or 2 * (left - size) > top * len(later) - base - size:
                continue
            deg[i] = top
            for chosen in itertools.combinations([j for j in later if deg[j] < top], size):
                above[i] = chosen
                for j in chosen:
                    deg[j] += 1
                block(i + 1, left - size)
                for j in chosen:
                    deg[j] -= 1
            deg[i] = top - size

    block(0, n - 1 + d)
    return frozenset(DegreeSequence._from_sorted(k) for k in confirmed)
