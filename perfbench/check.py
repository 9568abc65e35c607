"""Independent checks of every op's output.

Nothing here imports degseq. Verdicts are compared with networkx's
Erdős–Gallai and Havel–Hakimi tests; traces, witnesses, edge lists,
transfer chains and poset images are re-derived with the small functions
below. `check_op` returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache

import networkx as nx

from workloads import edge_degrees, hub_fill_edges


def eg_graphical(seq) -> bool:
    return nx.is_valid_degree_sequence_erdos_gallai(list(seq))


def is_graphical(seq) -> bool:
    """networkx's Erdős–Gallai verdict, confirmed by its Havel–Hakimi test."""
    eg = eg_graphical(seq)
    if eg != nx.is_valid_degree_sequence_havel_hakimi(list(seq)):
        raise AssertionError(f"networkx EG and HH disagree on {list(seq)[:20]}...")
    return eg


def desc(seq) -> list[int]:
    return sorted(seq, reverse=True)


def below(x, y) -> bool:
    """x is below y in the prefix-sum order."""
    ax = ay = 0
    for a, b in zip(x, y):
        ax += a
        ay += b
        if ax > ay:
            return False
    return True


def transfer_ascent(x, y) -> int:
    """Least number of unit transfers from x up to y: the ascent of the
    deficit profile D(k) = prefix_y(k) - prefix_x(k)."""
    ascent = prev = ax = ay = 0
    for a, b in zip(x, y):
        ax += a
        ay += b
        if ay - ax > prev:
            ascent += ay - ax - prev
        prev = ay - ax
    return ascent


def graph_problem(n: int, edges, degrees=None, connected=False):
    """Reason why `edges` is not a simple graph on n vertices with the given
    degree sequence (connected when asked), or None."""
    seen = set()
    adj = [[] for _ in range(n)]
    for e in edges:
        if len(e) != 2:
            return f"malformed edge {e}"
        u, v = e
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return f"bad edge {e}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {e}"
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if degrees is not None and desc(len(a) for a in adj) != desc(degrees):
        return "degrees differ from the requested sequence"
    if connected:
        reached = {0}
        queue = deque([0])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        if len(reached) != n:
            return f"not connected: {len(reached)} of {n} vertices reached"
    return None


def clique_fill_edges(n: int, d: int) -> list[list[int]]:
    """Star plus d edges growing a clique on leaves 1, 2, 3, ..."""
    edges = [[0, v] for v in range(1, n)]
    v = 2
    while len(edges) < n - 1 + d:
        for u in range(1, v):
            if len(edges) == n - 1 + d:
                break
            edges.append([u, v])
        v += 1
    return edges


# -- poset ground truth --------------------------------------------------------


def _partitions(total: int, slots: int, cap: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for v in range(min(cap, total - (slots - 1)), -(-total // slots) - 1, -1):
        for rest in _partitions(total - v, slots - 1, v):
            yield (v,) + rest


@lru_cache(maxsize=None)
def candidates(n: int, d: int) -> list[tuple[int, ...]]:
    """Positive non-increasing length-n sequences, entries <= n-1, total 2(n-1+d)."""
    return list(_partitions(2 * (n - 1 + d), n, n - 1))


@lru_cache(maxsize=None)
def image(n: int, d: int) -> frozenset:
    """Degree sequences of connected graphs: positive, right total, graphical."""
    return frozenset(p for p in candidates(n, d) if is_graphical(p))


# -- per-op checks ---------------------------------------------------------------


def _hh_step(before):
    h, rest = before[0], list(before[1:])
    if h > len(rest) or (h and rest[h - 1] == 0):
        return None
    return desc([v - 1 for v in rest[:h]] + rest[h:])


def _constant_step(before):
    links = min(before[0] - before[-1], len(before) - 1)
    if any(v == 0 for v in before[1 : links + 1]):
        return links, None
    after = [before[0] - links] + [v - 1 for v in before[1 : links + 1]] + list(before[links + 1 :])
    return links, desc(after)


def _check_trace(cert, x, graphical, method):
    if not cert or cert.get("kind") != "trace":
        return "missing trace"
    cur = x
    for step in cert["steps"]:
        if step["before"] != cur:
            return "trace steps do not chain"
        if method == "hh":
            if not any(cur):
                return "hh trace continues past the all-zero sequence"
            if step["rule"] != "hh" or step["after"] != _hh_step(cur):
                return f"wrong hh step from a length-{len(cur)} sequence"
        else:
            if cur[0] > len(cur) - 1 or cur[0] == cur[-1]:
                return "constant trace continues past a terminal state"
            links, after = _constant_step(cur)
            if step["rule"] != f"reduce(k=1,n={links})" or step["after"] != after:
                return f"wrong constant step from a length-{len(cur)} sequence"
        cur = step["after"]
    outcome = cert["outcome"]
    n = len(cur)
    if method == "hh":
        if graphical:
            return None if outcome == "all-zero" and not any(cur) else "bad accepting end"
        stuck = cur[0] > n - 1 or _hh_step(cur) is None
        return None if stuck and outcome.startswith("reject") and any(cur) else "bad rejecting end"
    if cur[0] > n - 1:
        return None if outcome.startswith("reject: head") and not graphical else "bad head end"
    if cur[0] == cur[-1]:
        a = cur[0]
        if graphical and (n * a) % 2:
            return "accepting constant end with odd N*a"
        return None if outcome.startswith(f"constant a={a}") else "bad constant end"
    if _constant_step(cur)[1] is None and outcome.startswith("reject") and not graphical:
        return None
    return "bad constant-trace end"


def _check_check(meta, code, data):
    x = desc(meta["seq"])
    truth = is_graphical(x)
    if data.get("sequence") != x:
        return "echoed sequence differs from the input"
    if data.get("graphical") is not truth:
        return f"verdict graphical={data.get('graphical')}, networkx says {truth}"
    if data.get("method") != meta["method"]:
        return "wrong method field"
    cert = data.get("certificate")
    method = meta["method"]
    if method == "eg":
        problem = None if cert is None else "unexpected certificate"
    elif method in ("hh", "constant"):
        problem = _check_trace(cert, x, truth, method)
    elif data.get("conclusive") is False:
        problem = None if cert is None else "inconclusive answer with a certificate"
    else:
        if not cert or cert.get("kind") != "witness":
            return "missing witness"
        w = cert["witness"]
        if len(w) != len(x) or sum(w) != sum(x) or w != desc(w):
            return "witness has another length or total, or is unsorted"
        if not below(w, x) or w == x:
            return "witness is not strictly below the input"
        problem = None
    if problem:
        return problem
    expected_code = 0 if truth or data.get("conclusive") is False else 1
    return None if code == expected_code else f"exit code {code}, expected {expected_code}"


def _check_maximal(meta, data):
    n, d = meta["n"], meta["d"]
    if (data.get("n"), data.get("d")) != (n, d):
        return "wrong (n, d) echoed"
    truth = image(n, d)
    got = [tuple(s) for s in data["all_sequences"]]
    if len(got) != len(set(got)) or set(got) != truth:
        return f"image has {len(set(got))} sequences, the checker finds {len(truth)}"
    maxi = [tuple(s) for s in data["maximal"]]
    if not set(maxi) <= truth:
        return "a maximal element is outside the image"
    for i, s in enumerate(maxi):
        for t in maxi[i + 1 :]:
            if below(s, t) or below(t, s):
                return "two maximal elements are comparable"
    if not all(any(below(s, m) for m in maxi) for s in truth):
        return "an image element is not below any maximal element"
    if d <= 4:
        families = {tuple(edge_degrees(n, hub_fill_edges(n, d)))}
        if d >= 3:
            families.add(tuple(edge_degrees(n, clique_fill_edges(n, d))))
        if set(maxi) != families:
            return "maximal set differs from the hub-fill and clique-fill sequences"
    if data.get("oracle_agreement") is not (meta["oracle"] == "both"):
        return "wrong oracle_agreement flag"
    return None


def check_op(meta: dict, code: int, text: str, error) -> str | None:
    if error is not None:
        return f"raised {error}"
    kind = meta["type"]
    try:
        data = json.loads(text)
    except ValueError:
        return "output is not one JSON record"
    if kind == "check":
        return _check_check(meta, code, data)
    if code != 0:
        return f"exit code {code}"
    if kind == "realize":
        x = desc(meta["seq"])
        if data.get("realized") is not True or data.get("sequence") != x or data.get("n") != len(x):
            return "realize header is wrong"
        return graph_problem(len(x), data["edges"], x, meta["connected"])
    if kind == "construct":
        n, d = meta["n"], meta["d"]
        own = clique_fill_edges(n, d) if meta["prime"] else hub_fill_edges(n, d)
        if data.get("sequence") != edge_degrees(n, own):
            return "sequence differs from the checker's own construction"
        if len(data["edges"]) != n - 1 + d:
            return "wrong edge count"
        return graph_problem(n, data["edges"], data["sequence"], connected=True)
    if kind == "decompose":
        x, y = desc(meta["x"]), desc(meta["y"])
        if data.get("decomposable") is not True or data.get("start") != x:
            return "decompose header is wrong"
        cur = list(x)
        for from_rank, to_rank in data["steps"]:
            if not 1 <= to_rank < from_rank <= len(cur):
                return f"bad transfer ({from_rank} -> {to_rank})"
            cur[to_rank - 1] += 1
            cur[from_rank - 1] -= 1
            if cur != desc(cur) or cur[-1] < 0:
                return "an intermediate sequence is not non-increasing"
        if cur != y:
            return "chain does not end at the target"
        if len(data["steps"]) != transfer_ascent(x, y):
            return f"chain has {len(data['steps'])} steps, the minimum is {transfer_ascent(x, y)}"
        return None
    if kind == "via_domination":
        return graph_problem(data["n"], data["edges"], meta["seq"], connected=True)
    if kind == "maximal":
        return _check_maximal(meta, data)
    if kind == "poset_query":
        truth = tuple(desc(meta["seq"])) in image(meta["n"], meta["d"])
        got = data.get("c_graphical")
        return None if got is truth else f"answered {got}, the checker says {truth}"
    return f"unknown op type {kind!r}"


def uncertifiable(max_n: int = 7, max_d: int = 3):
    """Non-graphical positive sequences, n <= max_n and d <= max_d, that are
    not strictly above the hub-fill sequence of their total: the hub-fill
    witness cannot certify them. `decide` runs three of them."""
    for n in range(2, max_n + 1):
        for d in range(0, min(max_d, (n - 1) * (n - 2) // 2) + 1):
            hub = edge_degrees(n, hub_fill_edges(n, d))
            for p in _partitions(2 * (n - 1 + d), n, 2 * (n - 1 + d)):
                if not is_graphical(p) and not (below(hub, p) and list(p) != hub):
                    yield p


if __name__ == "__main__":
    # python3 perfbench/check.py  -- regenerates workloads.UNCERTIFIABLE's pool
    for seq in uncertifiable():
        print(",".join(map(str, seq)))
