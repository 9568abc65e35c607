"""Seeded op lists for the three workloads.

Everything here is plain Python and shares no code with degseq: inputs are
built from random graphs and from the hub-fill closed form written out
again below. An op is a dict the measured process can run on its own
(``argv`` for the CLI, or the arguments of one library call); ``meta``
holds what the checker needs and never reaches the measured process.

Sizes are fixed per workload; the seed picks the random graphs, the
pushes, the transfers and the queries, so every seed does about the same
amount of work.
"""

from __future__ import annotations

import random

# Non-graphical sequences that the hub-fill witness cannot certify:
# `check --method certificate` answers "graphical": true on each of them.
# They do not depend on the seed, and every round runs all of them.
UNCERTIFIABLE = ("4,4,1,1,1,1", "5,5,2,1,1,1,1", "4,4,4,1,1,1,1")


def seq_arg(seq) -> str:
    return ",".join(str(v) for v in seq)


def geometric(lo: int, hi: int, count: int, even: bool = False) -> list[int]:
    """`count` sizes from lo to hi in a geometric progression.

    Op costs then spread evenly on a log scale, so no latency percentile
    falls into a gap between clusters of equal-cost ops.
    """
    sizes = [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]
    return [v + v % 2 if even else v for v in sizes]


# -- input generators --------------------------------------------------------


def random_graph_degrees(rng: random.Random, n: int, m: int) -> list[int]:
    """Sorted degrees of a uniform random graph with n vertices and m edges."""
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in seen:
            seen.add(e)
            deg[u] += 1
            deg[v] += 1
    return sorted(deg, reverse=True)


def random_connected_degrees(rng: random.Random, n: int, extra: int) -> list[int]:
    """Sorted degrees of a random recursive tree plus `extra` random edges."""
    deg = [0] * n
    seen: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        seen.add((u, v))
        deg[u] += 1
        deg[v] += 1
    while len(seen) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        e = (u, v) if u < v else (v, u)
        if u != v and e not in seen:
            seen.add(e)
            deg[u] += 1
            deg[v] += 1
    return sorted(deg, reverse=True)


def random_tree_degrees(rng: random.Random, n: int) -> list[int]:
    return random_connected_degrees(rng, n, 0)


def push_to_head(rng: random.Random, x: list[int], units: int) -> None:
    """Move `units` single units, in place, from tail entries of the sorted
    list x to its first n/50 entries.

    Positions keep their roles across calls: head entries only grow and
    tail entries only shrink, so every move takes from an entry no larger
    than the one it gives to. Once sorted, the result strictly dominates
    the input and has the same total.
    """
    n = len(x)
    head = max(1, n // 50)
    tail = n - max(head, n // 2)
    for _ in range(units):
        i = int(rng.random() * head)
        j = n - 1 - int(rng.random() * tail)
        while j > i and x[j] == 0:
            j -= 1
        if j == i:
            break
        x[i] += 1
        x[j] -= 1


def robin_hood(rng: random.Random, seq: list[int], moves: int) -> list[int]:
    """Apply `moves` unit transfers from a richer to a poorer entry.

    Only pairs that differ by at least two are used, so each move makes the
    sequence strictly more even; the result is dominated by the input with
    the same total and stays positive when the input is.
    """
    x = list(seq)
    n = len(x)
    for _ in range(moves):
        for _attempt in range(50):
            i, j = sorted(rng.sample(range(n), 2))
            if x[i] - x[j] >= 2:
                x[i] -= 1
                x[j] += 1
                x.sort(reverse=True)
                break
    return x


def hub_fill_edges(n: int, d: int) -> list[list[int]]:
    """The star on n vertices plus d edges added hub by hub: vertex 1 to
    every later leaf, then vertex 2, and so on."""
    edges = [[0, v] for v in range(1, n)]
    hub, remaining = 1, d
    while remaining > 0:
        for target in range(hub + 1, n):
            if remaining == 0:
                break
            edges.append([hub, target])
            remaining -= 1
        hub += 1
    return edges


def edge_degrees(n: int, edges) -> list[int]:
    """Sorted degree sequence of an edge list on n vertices."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg, reverse=True)


def hub_fill_degrees(n: int, d: int) -> list[int]:
    return edge_degrees(n, hub_fill_edges(n, d))


# -- workloads ---------------------------------------------------------------


def _cli(op_id: str, argv: list[str], meta: dict) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv + ["--json", "--quiet"], "meta": meta}


def decide_ops(seed: int, graphical_test) -> list[dict]:
    """`check` with every method on random-graph degree sequences.

    `graphical_test` (networkx's, passed in by the harness) finds how far a
    graphical sequence must be pushed to stop being graphical.
    """
    rng = random.Random(f"decide:{seed}")
    ops = []

    def graphical(n: int, k: int) -> list[int]:
        # average degree alternates between sparse (8) and n/20
        avg = 8 if k % 2 == 0 else n // 20
        return random_graph_degrees(rng, n, n * avg // 2)

    def non_graphical(n: int, k: int) -> list[int]:
        """Fewest pushed units that break graphicality: push in doubling
        batches, then bisect the last batch by replaying it."""
        x = graphical(n, k)
        units = max(1, n // 50)
        while True:
            state, before = rng.getstate(), list(x)
            push_to_head(rng, x, units)
            if not graphical_test(sorted(x, reverse=True)):
                break
            units *= 2

        def replay(count: int) -> list[int]:
            r = random.Random()
            r.setstate(state)
            trial = list(before)
            push_to_head(r, trial, count)
            return sorted(trial, reverse=True)

        lo, hi = 0, units
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if graphical_test(replay(mid)) else (lo, mid)
        return replay(hi)

    sizes = {
        "eg": geometric(50, 2000, 16),
        "hh": geometric(50, 1200, 14),
        "constant": geometric(50, 500, 10),
    }
    for method, ns in sizes.items():
        for k, n in enumerate(ns):
            for label, x in (("g", graphical(n, k)), ("ng", non_graphical(n, k))):
                ops.append(
                    _cli(
                        f"{method}-{label}-{n}",
                        ["check", seq_arg(x), "--method", method],
                        {"type": "check", "method": method, "seq": x},
                    )
                )
    for k, n in enumerate(geometric(150, 2000, 10)):
        x = graphical(n, k)
        d = sum(x) // 2 - (n - 1)
        w = hub_fill_degrees(n, d)
        push_to_head(rng, w, 1 + rng.randrange(n // 10))
        w.sort(reverse=True)
        for label, s in (("g", x), ("ng", w)):
            ops.append(
                _cli(
                    f"certificate-{label}-{n}",
                    ["check", seq_arg(s), "--method", "certificate"],
                    {"type": "check", "method": "certificate", "seq": s},
                )
            )
    for k, literal in enumerate(UNCERTIFIABLE):
        s = [int(v) for v in literal.split(",")]
        ops.append(
            _cli(
                f"certificate-uncertifiable-{k}",
                ["check", literal, "--method", "certificate"],
                {"type": "check", "method": "certificate", "seq": s, "known_fault": True},
            )
        )
    return ops


def realize_ops(seed: int) -> list[dict]:
    """Graph-building ops: realize, construct, decompose, rewire by domination."""
    rng = random.Random(f"realize:{seed}")
    ops = []
    # (name, sequence, largest n for --connected). How many components the
    # greedy realization leaves, and so the cost of connecting them, varies
    # with the seed on random inputs; above n = 250 that variation would
    # sit at op_p90_ms.
    inputs = []
    for n in geometric(40, 400, 12):
        inputs.append((f"low-{n}", random_connected_degrees(rng, n, n), 250))
    for n in geometric(40, 400, 8):
        inputs.append((f"mid-{n}", random_connected_degrees(rng, n, 4 * n), 250))
    for n in geometric(100, 400, 10, even=True):
        inputs.append((f"reg{n // 10}-{n}", [n // 10] * n, n))
    for n in geometric(60, 250, 8, even=True):
        inputs.append((f"reg3-{n}", [3] * n, n))
    for name, x, connected_up_to in inputs:
        for connected in (False, True) if len(x) <= connected_up_to else (False,):
            argv = ["realize", seq_arg(x)] + (["--connected"] if connected else [])
            ops.append(
                _cli(
                    f"realize{'-connected' if connected else ''}-{name}",
                    argv,
                    {"type": "realize", "seq": x, "connected": connected},
                )
            )
    for n, d in ((20, 150), (25, 200), (30, 300), (40, 500), (50, 700), (60, 1000), (70, 1300)):
        for prime in (False, True):
            argv = ["construct", str(n), str(d), "--emit", "graph"]
            argv += ["--prime"] if prime else []
            ops.append(
                _cli(
                    f"construct-{'prime-' if prime else ''}{n}-{d}",
                    argv,
                    {"type": "construct", "n": n, "d": d, "prime": prime},
                )
            )
    for n in geometric(100, 640, 10):
        x = random_tree_degrees(rng, n)
        y = [n - 1] + [1] * (n - 1)
        ops.append(
            _cli(f"decompose-tree-{n}", ["decompose", seq_arg(x), seq_arg(y)],
                 {"type": "decompose", "x": x, "y": y})
        )
    for n, d in ((100, 20), (200, 40), (300, 60), (400, 80)):
        y = hub_fill_degrees(n, d)
        x = robin_hood(rng, y, n)
        ops.append(
            _cli(f"decompose-hub-{n}", ["decompose", seq_arg(x), seq_arg(y)],
                 {"type": "decompose", "x": x, "y": y})
        )
    for n, d in ((50, 0), (75, 0), (100, 0), (140, 0), (200, 0),
                 (100, 20), (130, 25), (160, 30), (200, 40)):
        edges = hub_fill_edges(n, d)
        x = random_tree_degrees(rng, n) if d == 0 else robin_hood(rng, hub_fill_degrees(n, d), n)
        ops.append(
            {
                "id": f"via-domination-{n}-{d}",
                "kind": "via_domination",
                "x": x,
                "n": n,
                "edges": edges,
                "meta": {"type": "via_domination", "seq": x},
            }
        )
    return ops


# (n, d) keys of the poset sweeps. (7, 3) runs both oracles and scans
# C(21, 9) = 293,930 labeled graphs; the others use the partitions oracle.
# No key repeats and no key is swept by two oracles. The keys spread the
# cost of a warm query (one maximal-element filter) from about 1 ms to
# 100 ms, so no percentile of the op latencies falls into a gap.
GRAPHS_SWEEP = (7, 3)
PARTITION_SWEEPS = (
    (9, 4), (9, 8), (9, 12), (9, 16), (10, 8), (10, 12), (10, 20), (10, 24),
    (11, 4), (11, 8), (11, 30), (12, 4), (12, 8),
)
QUERIES_PER_KEY = 7


def poset_ops(seed: int, candidates) -> list[dict]:
    """Cold `maximal` sweeps plus warm `is_c_graphical_poset` queries.

    `candidates(n, d)` lists every positive non-increasing length-n
    sequence with entries at most n-1 and total 2(n-1+d), from the checker's
    own enumeration; the queries are drawn from it.
    """
    rng = random.Random(f"poset:{seed}")
    ops = []
    keys = [(GRAPHS_SWEEP, "both")] + [(k, "partitions") for k in PARTITION_SWEEPS]
    for (n, d), oracle in keys:
        argv = ["maximal", str(n), str(d)]
        argv += ["--oracle", oracle] if oracle != "both" else []
        ops.append(
            _cli(f"sweep-{n}-{d}", argv,
                 {"type": "maximal", "n": n, "d": d, "oracle": oracle, "key": [n, d]})
        )
        pool = candidates(n, d)
        for q, x in enumerate(rng.sample(pool, QUERIES_PER_KEY)):
            ops.append(
                {
                    "id": f"query-{n}-{d}-{q}",
                    "kind": "poset_query",
                    "x": list(x),
                    "oracle": oracle,
                    "meta": {"type": "poset_query", "seq": list(x), "n": n, "d": d,
                             "key": [n, d]},
                }
            )
    return ops


def round_order(ops: list[dict], seed: int, round_no: int) -> list[dict]:
    """Seeded shuffle; an op that names a poset key follows that key's sweep.

    Queries must find their key already enumerated, so after the shuffle
    each key's sweep is swapped into the first slot any op of that key holds.
    """
    order = list(ops)
    random.Random(f"order:{seed}:{round_no}").shuffle(order)
    first: dict[tuple, int] = {}
    for pos, op in enumerate(order):
        key = op["meta"].get("key")
        if key is None:
            continue
        key = tuple(key)
        if key not in first:
            first[key] = pos
        elif op["meta"]["type"] == "maximal":
            order[first[key]], order[pos] = order[pos], order[first[key]]
    return order
