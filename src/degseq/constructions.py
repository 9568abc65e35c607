"""Canonical connected graphs built by adding d edges to a star.

Two families are built on n vertices, both starting from the star with
center 0 and leaves 1..n-1 and both adding exactly d edges among leaves:

* hub fill: leaf 1 is connected to every other leaf, then leaf 2 to every
  remaining one, and so on, each round saturating one more vertex to full
  degree n-1. The degree sequence has a closed form driven by the split of
  d into completed rounds plus a partial round.
* clique fill: the leaves 1, 2, 3, ... grow a complete subgraph; edge
  number d lands inside the clique on the first min(m, ...) leaves. The
  two families agree for d <= 2 and diverge from d = 3 on.

For negative d (degree total below 2(n-1)) the companion object is an
incomplete star: a star on n+d vertices padded with isolated vertices.

Each graph is built as larger-neighbor lists, vertex u's being range(u+1,
u+1+k_u), and checked against its closed-form sequence, which lists the
degrees in vertex order, so formula and graph are compared on every call.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .graphs import Adjacency, SimpleGraph, _check_realization, _freeze
from .orders import DegreeSequence


def max_added_edges(n: int) -> int:
    """Largest d: the complete graph is the star plus (n-1)(n-2)/2 edges."""
    return (n - 1) * (n - 2) // 2


def _check_range(n: int, d: int) -> None:
    if n < 2:
        raise OutOfRangeError(f"need at least 2 vertices, got n={n}")
    if not 0 <= d <= max_added_edges(n):
        raise OutOfRangeError(f"d={d} outside 0..{max_added_edges(n)} for n={n}")


def hub_fill_sequence(n: int, d: int) -> DegreeSequence:
    """Closed-form degree sequence of the hub-fill graph.

    Round r (r >= 2) has length n - r. The split of d takes i, the number
    of vertices at full degree n-1, as the largest i with rounds 2..i
    summing to at most d, and j, the edges of the partial round, as the
    remainder, which lies in 0..n-i-2 (at the top value (n-1)(n-2)/2 the
    split is (n-1, 0), the complete graph). The sequence is i copies of
    n-1, then i+j, then j copies of i+1, then n-i-j-1 copies of i.
    """
    _check_range(n, d)
    i, j = 1, d
    while i < n - 1 and n - i - 1 <= j:
        j -= n - i - 1
        i += 1
    return DegreeSequence([n - 1] * i + [i + j] + [i + 1] * j + [i] * (n - i - j - 1))


def _lists(seq: DegreeSequence, counts: list[int]) -> Adjacency:
    """Vertex u's list range(u+1, u+1+counts[u]), checked against seq."""
    up = [list(range(u + 1, u + 1 + k)) for u, k in enumerate(counts)]
    _check_realization(seq, up)
    return up


def _hub_fill(n: int, d: int) -> tuple[DegreeSequence, list[int]]:
    """hub_fill_sequence(n, d) and the larger-neighbor count per vertex:
    n-1 for the center, then each leaf takes the later leaves d has left."""
    seq, counts = hub_fill_sequence(n, d), [n - 1]
    for u in range(1, n):
        counts.append(min(n - 1 - u, d))
        d -= counts[-1]
    return seq, counts


def build_hub_fill(n: int, d: int) -> SimpleGraph:
    """Star plus d edges: vertex 1 links to leaves 2.., then vertex 2, ..."""
    return _freeze(_lists(*_hub_fill(n, d)))


def _clique_split(n: int, d: int) -> tuple[int, int]:
    """(m, r): complete graph on leaves 1..m plus r edges from leaf m+1."""
    m = 1
    while (m + 1) * m // 2 <= d:
        m += 1
    return m, d - m * (m - 1) // 2


def clique_fill_sequence(n: int, d: int) -> DegreeSequence:
    """Degree sequence of the star with a growing leaf clique.

    Leaves 1..m form a complete subgraph and leaf m+1 has r partial edges
    into it, where d = m(m-1)/2 + r with 0 <= r < m. Coincides with the
    hub-fill sequence for d <= 2.
    """
    _check_range(n, d)
    m, r = _clique_split(n, d)
    vals = [n - 1] + [m + 1] * r + [m] * (m - r) + [1 + r] * (r > 0)
    return DegreeSequence(vals + [1] * (n - len(vals)))


def _clique_fill(n: int, d: int) -> tuple[DegreeSequence, list[int]]:
    """clique_fill_sequence(n, d) and the larger-neighbor count per vertex:
    leaf u <= m links to leaves u+1..m, and also to m+1 when u <= r."""
    seq, (m, r) = clique_fill_sequence(n, d), _clique_split(n, d)
    return seq, [n - 1] + [m - u + (u <= r) for u in range(1, m + 1)] + [0] * (n - 1 - m)


def build_clique_fill(n: int, d: int) -> SimpleGraph:
    return _freeze(_lists(*_clique_fill(n, d)))


def _incomplete_star(n: int, d: int) -> tuple[DegreeSequence, list[int]]:
    """The sequence of incomplete_star(n, d) and the larger-neighbor counts."""
    if n < 2:
        raise OutOfRangeError(f"need at least 2 vertices, got n={n}")
    if not -(n - 1) <= d <= -1:
        raise OutOfRangeError(f"d={d} outside {-(n - 1)}..-1 for n={n}")
    a = n - 1 + d
    return DegreeSequence([a] + [1] * a + [0] * (n - a - 1)), [a] + [0] * (n - 1)


def incomplete_star(n: int, d: int) -> tuple[DegreeSequence, SimpleGraph]:
    """Companion object for degree totals below 2(n-1), i.e. d < 0.

    With a = n-1+d the sequence is (a, 1 x a, 0 x (n-a-1)) and the graph a
    star on a+1 vertices plus n-a-1 isolated vertices. a = 0 degenerates to
    the edgeless graph.
    """
    seq, counts = _incomplete_star(n, d)
    return seq, _freeze(_lists(seq, counts))
