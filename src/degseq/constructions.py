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

All three are threshold graphs, each built from its closed-form sequence t
alone, the degrees in vertex order: vertex u's larger neighbors are u+1..t_u,
none when t_u <= u (a threshold sequence has one realization up to
isomorphism; Hammer, Ibaraki & Simeone 1981). Proof: in each family a vertex
with k_u > 0 larger neighbors is joined to every smaller one, so t_u = u + k_u.
The lists are checked against t on every call, so a wrong formula raises.
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


def _lists(seq: DegreeSequence) -> Adjacency:
    """Vertex u's larger neighbors u+1..seq[u], checked against seq: the one
    realization of a threshold sequence in its own order (see above)."""
    up = [list(range(u + 1, t + 1)) for u, t in enumerate(seq)]
    _check_realization(seq, up)
    return up


def build_hub_fill(n: int, d: int) -> SimpleGraph:
    """Star plus d edges: vertex 1 links to leaves 2.., then vertex 2, ..."""
    return _freeze(_lists(hub_fill_sequence(n, d)))


def clique_fill_sequence(n: int, d: int) -> DegreeSequence:
    """Degree sequence of the star with a growing leaf clique.

    Leaves 1..m form a complete subgraph and leaf m+1 has r partial edges
    into it, where d = m(m-1)/2 + r with 0 <= r < m. Coincides with the
    hub-fill sequence for d <= 2.
    """
    _check_range(n, d)
    m = 1
    while (m + 1) * m // 2 <= d:
        m += 1
    r = d - m * (m - 1) // 2
    vals = [n - 1] + [m + 1] * r + [m] * (m - r) + [1 + r] * (r > 0)
    return DegreeSequence(vals + [1] * (n - len(vals)))


def build_clique_fill(n: int, d: int) -> SimpleGraph:
    return _freeze(_lists(clique_fill_sequence(n, d)))


def _incomplete_star(n: int, d: int) -> DegreeSequence:
    """The sequence of incomplete_star(n, d)."""
    if n < 2:
        raise OutOfRangeError(f"need at least 2 vertices, got n={n}")
    if not -(n - 1) <= d <= -1:
        raise OutOfRangeError(f"d={d} outside {-(n - 1)}..-1 for n={n}")
    a = n - 1 + d
    return DegreeSequence([a] + [1] * a + [0] * (n - a - 1))


def incomplete_star(n: int, d: int) -> tuple[DegreeSequence, SimpleGraph]:
    """Companion object for degree totals below 2(n-1), i.e. d < 0.

    With a = n-1+d the sequence is (a, 1 x a, 0 x (n-a-1)) and the graph a
    star on a+1 vertices plus n-a-1 isolated vertices. a = 0 degenerates to
    the edgeless graph.
    """
    seq = _incomplete_star(n, d)
    return seq, _freeze(_lists(seq))
