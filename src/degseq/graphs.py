"""Immutable labeled simple undirected graphs.

Vertices are dense integers 0..n-1, and a SimpleGraph never mutates. It
stores one form: per vertex u, the ascending tuple of its neighbors v > u.
The constructor is the one validator of outside edges. Every graph the
library builds is made as such lists, checked once by `_check_realization`
and wrapped by `_freeze`. Library code reads only `up`: degrees, edges,
renderings, union-find components and the rewirings' mutable copy (`_thaw`)
are built from it with no sort and leave no cache on the graph. BFS visits
neighbors in ascending order, so shortest paths are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterable
from functools import cached_property
from itertools import chain, pairwise
from operator import eq, lt

from .errors import EdgeExistsError, InternalInconsistencyError, SelfLoopError
from .orders import DegreeSequence
from .record import Record

Edge = tuple[int, int]
VertexPath = tuple[int, ...]


class SimpleGraph(Record):
    """n vertices 0..n-1 and up[u], the ascending tuple of u's neighbors v > u.
    The constructor takes normalized (u, v) edges in any iterable, rejects a
    self-loop, a pair out of range and a repeated pair, sorts them into up and
    keeps nothing else. up is canonical: equality, hash and library code read
    it. `edges`, the frozenset that repr and pickle show, is built from up on
    first read. The cached full adjacency backs only neighbors() and degree()."""

    __match_args__ = ("n", "edges")
    __slots__ = ("n", "up", "__dict__")  # the dict caches edges and neighbors()'s adjacency
    n: int
    up: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        up: Adjacency = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range or unnormalized")
            up[u].append(v)
        for u, vs in enumerate(up):
            vs.sort()
            if any(map(eq, vs, vs[1:])):  # a list of edges that repeats a pair
                v = next(a for a, b in pairwise(vs) if a == b)
                raise EdgeExistsError(f"duplicate edge {(u, v)}")
        object.__setattr__(self, "up", tuple(map(tuple, up)))
        del self.__dict__["edges"]  # rebuilt from up when read

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """The graph of unordered pairs, each normalized to (min, max)."""
        return cls(n, [(u, v) if u < v else (v, u) for u, v in pairs])

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.sorted_edges())

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The ascending neighbor tuples behind neighbors() and degree() only."""
        return tuple(map(tuple, _thaw(self)))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def sorted_edges(self) -> list[Edge]:
        """Edges in ascending order, read off up."""
        return [(u, v) for u, vs in enumerate(self.up) for v in vs]

    def __eq__(self, other):  # edge-set equality
        return self.up == other.up if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.up)

    def to_dict(self) -> dict:
        """The graph as a verdict's realization certificate, edges ascending."""
        return {"kind": "realization", "n": self.n, "edges": list(map(list, self.sorted_edges()))}

    @classmethod
    def from_dict(cls, data: dict) -> "SimpleGraph":
        return cls.from_edges(data["n"], data["edges"])


def degree_sequence(g: SimpleGraph) -> DegreeSequence:
    """All vertex degrees, sorted non-increasingly, counted off g.up."""
    return DegreeSequence(_degrees(g.up))


def is_connected(g: SimpleGraph) -> bool:
    """One component; a single vertex counts as connected."""
    return not any(_components(g.up))


# -- mutable adjacency (package-internal) ------------------------------------
#
# adj[v] is the ascending list of v's neighbors. Edits keep every list
# sorted, so traversals see neighbors in ascending order, as on SimpleGraph.

Adjacency = list[list[int]]


def _thaw(g: SimpleGraph) -> Adjacency:
    """Fresh ascending full neighbor lists from g.up: O(n + m), no sort, no cache."""
    adj: Adjacency = [[] for _ in range(g.n)]
    for u, vs in enumerate(g.up):
        adj[u] += vs  # after u's smaller neighbors, appended in order as they ran
        for v in vs:
            adj[v].append(u)
    return adj


def _degrees(up) -> list[int]:
    """Degree per vertex from larger-neighbor lists: O(n + m), no list per vertex."""
    degrees = list(map(len, up))  # the neighbors above each vertex, then those below
    for v in chain.from_iterable(up):
        degrees[v] += 1
    return degrees


def _check_realization(x: list[int], up: Adjacency) -> None:
    """Raise InternalInconsistencyError unless the lists up describe a simple
    graph in which vertex v has degree x[v]: up[u] strictly ascending, above
    u and below n, so each edge is listed once, at its smaller end. O(n + m).
    Every graph the library returns is frozen from lists this check passed."""
    n = len(up)
    for u, vs in enumerate(up):
        if vs and not (u < vs[0] and vs[-1] < n and all(map(lt, vs, vs[1:]))):
            raise InternalInconsistencyError(
                f"the neighbors above vertex {u} are not strictly ascending in {u + 1}..{n - 1}"
            )
    if _degrees(up) != list(x):
        raise InternalInconsistencyError("the realization has the wrong degrees")


def _freeze(up: Adjacency) -> SimpleGraph:
    """The SimpleGraph of larger-neighbor lists that passed _check_realization,
    built without __post_init__: the counterpart of DegreeSequence._from_sorted."""
    g = object.__new__(SimpleGraph)
    object.__setattr__(g, "n", len(up))
    object.__setattr__(g, "up", tuple(map(tuple, up)))
    return g


def _link(adj: Adjacency, u: int, v: int) -> None:
    insort(adj[u], v)
    insort(adj[v], u)


def _unlink(adj: Adjacency, u: int, v: int) -> None:
    adj[u].remove(v)
    adj[v].remove(u)


def _components(adj) -> list[int]:
    """Root per vertex: the smallest vertex of its component.

    One union-find pass with path halving (Tarjan, J. ACM 22(2), 1975)
    joins the edges (u, v), u < v, for u from n-1 down to 0. It reads only
    the neighbors v > u of each u, so adj may also hold just those. When
    the pass reaches u, the edges met so far join only vertices above u,
    so u's set has root u until u is done, and each join hangs the other
    root, which is larger, below u.
    """
    n = len(adj)
    parent = list(range(n))  # parent[v] <= v, so each root is its component's minimum
    for u in range(n - 1, -1, -1):
        for v in reversed(adj[u]):
            if v < u:
                break
            r = v
            while parent[r] != r:  # path halving
                parent[r] = r = parent[parent[r]]
            parent[r] = u
    for v in range(n):  # a parent below v already points at its root
        parent[v] = parent[parent[v]]
    return parent


def _path(adj, i: int, j: int) -> VertexPath:
    """Shortest i-j path, () if there is none; BFS in ascending order, first parent wins.

    The inverse-transfer rewiring relies on this being a shortest path:
    on a shortest path no two non-consecutive vertices are adjacent, which
    is what makes the rewiring pivot always exist. Paths of one or two
    edges are found without the BFS, by binary search in the ascending
    lists: the BFS's two-edge path runs through the smallest common
    neighbor, the first neighbor of i it expands that reaches j.
    """
    if i == j:
        raise ValueError("path endpoints must differ")
    nbrs = adj[i]
    p = bisect_left(nbrs, j)
    if p < len(nbrs) and nbrs[p] == j:
        return i, j
    short, other = sorted((nbrs, adj[j]), key=len)
    for w in short:  # ascending, so the first common neighbor is the smallest
        p = bisect_left(other, w)
        if p < len(other) and other[p] == w:
            return i, w, j
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
        return ()
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


# -- text formats ------------------------------------------------------------
#
# The renderers read per vertex u the ascending list of its neighbors v > u
# (SimpleGraph.up, or the lists a realization is built on),
# build no edge tuple and turn each vertex number into a string once.


def _edge_runs(up: list[list[int]], head: str, sep: str, tail: str, join: str = ""):
    """Yield one string per vertex u with upper neighbors: head u sep v tail
    per neighbor v, in ascending order, the pieces separated by join."""
    names = list(map(str, range(len(up))))
    name = names.__getitem__
    for u, vs in enumerate(up):
        if vs:
            pre = head + names[u] + sep
            yield pre + (tail + join + pre).join(map(name, vs)) + tail


def _edge_list_text(up: list[list[int]]) -> str:
    return f"{len(up)} {sum(map(len, up))}\n" + "".join(_edge_runs(up, "", " ", "\n"))


def _dot(up: list[list[int]]) -> str:
    vertices = "".join(f"  {v};\n" for v in range(len(up)))
    return "graph G {\n" + vertices + "".join(_edge_runs(up, "  ", " -- ", ";\n")) + "}\n"


def to_edge_list_text(g: SimpleGraph) -> str:
    """First line "n m", then one "u v" line per edge, ascending."""
    return _edge_list_text(g.up)


def to_dot(g: SimpleGraph) -> str:
    """Undirected DOT text for human inspection, default styling."""
    return _dot(g.up)
