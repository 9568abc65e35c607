"""Immutable labeled simple undirected graphs.

Vertices are dense integers 0..n-1, and a SimpleGraph never mutates.
Connectivity and the first edge on a cycle come from one union-find pass,
and shortest paths from a BFS that visits neighbors in ascending index
order, so outputs are reproducible. Edges come out in ascending (u, v)
order from each vertex's ascending list of larger neighbors, in O(m) plus
sorting those short lists.

Algorithms that edit one graph many times (the realizations and the
rewiring chains in `realizability`) work on a mutable adjacency, a list
of ascending neighbor lists, with the package-internal helpers at the end
of this module, and freeze it into a SimpleGraph once.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Iterable
from functools import cached_property

from .errors import EdgeExistsError, NoPathError, SelfLoopError
from .orders import DegreeSequence
from .record import Record

Edge = tuple[int, int]
VertexPath = tuple[int, ...]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class SimpleGraph(Record):
    """n vertices 0..n-1 plus a frozenset of normalized (u, v) edges."""

    __match_args__ = ("n", "edges")
    __slots__ = (*__match_args__, "__dict__")  # the dict holds the cached adjacency
    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for u, v in self.edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range or unnormalized")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        normed = set()
        for u, v in pairs:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            e = _norm(u, v)
            if e in normed:
                raise EdgeExistsError(f"duplicate edge {e}")
            normed.add(e)
        return cls(n=n, edges=frozenset(normed))

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _adjacency_lists(self.n, self.edges)))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def upper_neighbors(self) -> list[list[int]]:
        """Per vertex u, the ascending list of its neighbors v > u."""
        up: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            up[u].append(v)
        for vs in up:
            vs.sort()
        return up

    def sorted_edges(self) -> list[Edge]:
        """Edges in ascending order, read off upper_neighbors (no tuple sort)."""
        return [(u, v) for u, vs in enumerate(self.upper_neighbors()) for v in vs]


def degree_sequence(g: SimpleGraph) -> DegreeSequence:
    """All vertex degrees, sorted non-increasingly."""
    return DegreeSequence(g.degree(v) for v in range(g.n))


def is_connected(g: SimpleGraph) -> bool:
    """One component; a single vertex counts as connected."""
    return _connected(g._adjacency)


# -- mutable adjacency (package-internal) ------------------------------------
#
# adj[v] is the ascending list of v's neighbors. Edits keep every list
# sorted, so traversals see neighbors in ascending order, as on SimpleGraph.

Adjacency = list[list[int]]


def _adjacency_lists(n: int, edges: Iterable[Edge]) -> Adjacency:
    adj: Adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return adj


def _thaw(g: SimpleGraph) -> Adjacency:
    return [list(nbrs) for nbrs in g._adjacency]


def _freeze(adj: Adjacency) -> SimpleGraph:
    edges = frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)
    return SimpleGraph(len(adj), edges)


def _link(adj: Adjacency, u: int, v: int) -> None:
    insort(adj[u], v)
    insort(adj[v], u)


def _unlink(adj: Adjacency, u: int, v: int) -> None:
    adj[u].remove(v)
    adj[v].remove(u)


def _components(adj) -> tuple[list[int], Edge | None]:
    """Root per vertex (the smallest vertex of its component) and the
    lexicographically first edge that lies on a cycle, or None on a forest.

    One union-find pass with path halving (Tarjan, J. ACM 22(2), 1975)
    joins the edges (u, v), u < v, in descending lexicographic order. It
    reads only the neighbors v > u of each u, so adj may also hold just
    those. An edge whose ends are already joined closes a cycle whose
    other edges come before it in the pass, so all are larger: it is the
    smallest edge of that cycle. Conversely, the smallest edge of any
    cycle C is closed, since the rest of C comes first and joins its ends.
    So the first edge on any cycle, which is the smallest edge of its
    cycle, is the smallest closing edge: the last one the pass meets.

    When the pass reaches u, the edges met so far join only vertices above
    u, so u's set has root u until u is done, and each join hangs the
    other root, which is larger, below u.
    """
    n = len(adj)
    parent = list(range(n))  # parent[v] <= v, so each root is its component's minimum
    cycle = None
    for u in range(n - 1, -1, -1):
        for v in reversed(adj[u]):
            if v < u:
                break
            r = v
            while parent[r] != r:  # path halving
                parent[r] = r = parent[parent[r]]
            if r == u:
                cycle = (u, v)
            else:
                parent[r] = u
    for v in range(n):  # a parent below v already points at its root
        parent[v] = parent[parent[v]]
    return parent, cycle


def _connected(adj) -> bool:
    return not any(_components(adj)[0])


def _path(adj, i: int, j: int) -> VertexPath:
    """Shortest i-j path; BFS in ascending neighbor order, first parent wins.

    The inverse-transfer rewiring relies on this being a shortest path:
    on a shortest path no two non-consecutive vertices are adjacent, which
    is what makes the rewiring pivot always exist.
    """
    if i == j:
        raise ValueError("path endpoints must differ")
    parent = {i: i}
    queue = deque([i])
    while queue and j not in parent:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                if w == j:  # parents already set stay, so the path is the same
                    break
                queue.append(w)
    if j not in parent:
        raise NoPathError(f"vertices {i} and {j} are in different components")
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


# -- text formats ------------------------------------------------------------


def to_edge_list_text(g: SimpleGraph) -> str:
    """First line "n m", then one "u v" line per edge, ascending."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def to_dot(g: SimpleGraph) -> str:
    """Undirected DOT text for human inspection, default styling."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
