"""Immutable labeled simple undirected graphs.

Vertices are dense integers 0..n-1. Graph values never mutate: every edit
returns a new graph, which keeps rewiring chains auditable step by step.
All traversals visit neighbors in ascending index order so outputs are
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    EdgeExistsError,
    EdgeMissingError,
    NoPathError,
    SelfLoopError,
    SwapBlockedError,
)
from .orders import DegreeSequence

Edge = tuple[int, int]
VertexPath = tuple[int, ...]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """n vertices 0..n-1 plus a frozenset of normalized (u, v) edges."""

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
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def degree_sequence(g: SimpleGraph) -> DegreeSequence:
    """All vertex degrees, sorted non-increasingly."""
    return DegreeSequence(g.degree(v) for v in range(g.n))


def is_connected(g: SimpleGraph) -> bool:
    """One component; a single vertex counts as connected."""
    return max(component_labels(g)) == 0


def component_labels(g: SimpleGraph) -> list[int]:
    """Component id per vertex, ids assigned in ascending first-vertex order."""
    label = [-1] * g.n
    cid = 0
    for s in range(g.n):
        if label[s] != -1:
            continue
        label[s] = cid
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if label[w] == -1:
                    label[w] = cid
                    queue.append(w)
        cid += 1
    return label


def find_path(g: SimpleGraph, i: int, j: int) -> VertexPath:
    """Shortest path from i to j (BFS, ascending neighbor order).

    The inverse-transfer rewiring relies on this being a shortest path:
    on a shortest path no two non-consecutive vertices are adjacent, which
    is what makes the rewiring pivot always exist.
    """
    if i == j:
        raise ValueError("path endpoints must differ")
    parent = {i: i}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        if u == j:
            break
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if j not in parent:
        raise NoPathError(f"vertices {i} and {j} are in different components")
    path = [j]
    while path[-1] != i:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


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


def two_swap(g: SimpleGraph, e1: tuple[int, int], e2: tuple[int, int]) -> SimpleGraph:
    """Replace edges {a,b},{c,d} by {a,c},{b,d}; degrees are unchanged.

    Requires the four endpoints distinct and both replacement edges absent.
    """
    a, b = _norm(*e1)
    c, d = _norm(*e2)
    for e in ((a, b), (c, d)):
        if e not in g.edges:
            raise EdgeMissingError(f"edge {e} not present")
    if len({a, b, c, d}) != 4:
        raise SwapBlockedError("swap endpoints must be four distinct vertices")
    for e in (_norm(a, c), _norm(b, d)):
        if e in g.edges:
            raise SwapBlockedError(f"replacement edge {e} already present")
    return SimpleGraph(g.n, (g.edges - {(a, b), (c, d)}) | {_norm(a, c), _norm(b, d)})


# -- text formats ------------------------------------------------------------


def to_edge_list_text(g: SimpleGraph) -> str:
    """First line "n m", then one "u v" line per edge, ascending."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> SimpleGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line {lines[0]!r}; expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        u, v = ln.split()
        pairs.append((int(u), int(v)))
    return SimpleGraph.from_edges(n, pairs)


def to_dot(g: SimpleGraph) -> str:
    """Undirected DOT text for human inspection, default styling."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
