"""Spans and counts around degseq's public functions, installed from outside.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span, in every module that binds the name
(so `maximal.erdos_gallai`, `realizability.two_swap` and the other
re-imported names are traced too). The degseq source is not changed.
A few spans and counts need more than a name:

* `DegreeSequence.__new__` is wrapped for the `orders.DegreeSequence` span
  and `SimpleGraph.__post_init__` counts the edges every graph value holds;
* the two enumeration oracles of `maximal` are wrapped by name as the spans
  `maximal.enumerate.graphs` and `maximal.enumerate.partitions`; their caches
  are never read, and cache hits are counted here as repeated (n, d) keys;
* `maximal.bounded_partitions` is a generator, so only its items are counted.

Spans are kept in memory as four parallel arrays (name id, start, end,
parent index; -1 for a root) and written out when the round ends.
"""

from __future__ import annotations

import json
import math
import time
import types
from array import array
from collections import Counter

MODULES = ("cli", "orders", "realizability", "graphs", "constructions", "maximal")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_mb", "MB"),
    ("orders.DegreeSequence.calls", "count"),
    ("orders.DegreeSequence.self_s", "s"),
    ("orders.majorized.calls", "count"),
    ("orders.majorized.self_s", "s"),
    ("orders.decompose_into_basic_transfers.calls", "count"),
    ("orders.decompose_into_basic_transfers.self_s", "s"),
    ("orders.transfers", "count"),
]
for _fn in ("erdos_gallai", "havel_hakimi_trace", "reduce_to_constant", "non_graphical_certificate"):
    PER_LAYER += [(f"realizability.{_fn}.calls", "count"), (f"realizability.{_fn}.self_s", "s")]
PER_LAYER += [
    ("realizability.hh_steps", "count"),
    ("realizability.certificate.conclusive_ratio", "ratio"),
]
for _fn in ("realize", "realize_connected", "realize_via_domination", "apply_inverse_transfer"):
    PER_LAYER += [(f"realizability.{_fn}.calls", "count"), (f"realizability.{_fn}.self_s", "s")]
PER_LAYER += [
    ("graphs.edits", "count"),
    ("graphs.edits.self_s", "s"),
    ("graphs.edge_copies", "count"),
    ("graphs.find_path.calls", "count"),
    ("graphs.find_path.self_s", "s"),
    ("graphs.is_connected.calls", "count"),
    ("graphs.is_connected.self_s", "s"),
    ("constructions.build_hub_fill.calls", "count"),
    ("constructions.build_hub_fill.self_s", "s"),
    ("constructions.build_clique_fill.calls", "count"),
    ("constructions.build_clique_fill.self_s", "s"),
    ("constructions.hub_fill_sequence.calls", "count"),
    ("maximal.enumerate.graphs.self_s", "s"),
    ("maximal.enumerate.partitions.self_s", "s"),
    ("maximal.filter.self_s", "s"),
    ("maximal.is_c_graphical_poset.calls", "count"),
    ("maximal.is_c_graphical_poset.self_s", "s"),
    ("maximal.partitions_visited", "count"),
    ("maximal.partitions.accept_ratio", "ratio"),
    ("maximal.labeled_graphs", "count"),
    ("maximal.cache_hits", "count"),
    ("maximal.image_size", "count"),
    ("maximal.maximal_size", "count"),
    ("trace.overhead_s", "s"),
]

# Span groups reported under one name: edits are the three edge-editing
# functions, connectivity includes the component labelling BFS.
GROUPS = {
    "graphs.edits": ("graphs.add_edge", "graphs.remove_edge", "graphs.two_swap"),
    "graphs.is_connected": ("graphs.is_connected", "graphs.component_labels"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._keys_seen: set[tuple] = set()
        self._last_cold = False
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, on_call=None, on_return=None):
        """Wrap fn so that each call records one span named `name`."""
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        import importlib

        import degseq
        from degseq.graphs import SimpleGraph
        from degseq.orders import DegreeSequence

        modules = [importlib.import_module(f"degseq.{m}") for m in MODULES]
        counts = self.counts
        hooks = {
            "orders.decompose_into_basic_transfers": dict(
                on_return=lambda chain: counts.update({"orders.transfers": len(chain.steps)})
            ),
            "realizability.non_graphical_certificate": dict(
                on_return=lambda w: counts.update({"certificate.conclusive": w is not None})
            ),
            "maximal.maximal_elements": dict(on_return=self._count_report),
        }
        wrappers: dict[object, object] = {}
        for mod in modules + [degseq]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("degseq."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                    if name == "maximal.bounded_partitions":
                        wrappers[obj] = self._counted_generator(obj, "maximal.partitions_visited")
                    else:
                        wrappers[obj] = self.span(obj, name, **hooks.get(name, {}))
                self._patch(mod, attr, wrappers[obj])

        maximal = importlib.import_module("degseq.maximal")
        for attr, oracle in (("_sequences_by_graphs", "graphs"), ("_sequences_by_partitions", "partitions")):
            self._patch(
                maximal,
                attr,
                self.span(
                    getattr(maximal, attr),
                    f"maximal.enumerate.{oracle}",
                    on_call=lambda n, d, oracle=oracle: self._count_key(oracle, n, d),
                    on_return=(self._count_accepted if oracle == "partitions" else None),
                ),
            )

        new = DegreeSequence.__dict__["__new__"]
        self._patch(DegreeSequence, "__new__", staticmethod(self.span(new, "orders.DegreeSequence")))
        post_init = SimpleGraph.__post_init__

        def counted_post_init(graph):
            counts["graphs.edge_copies"] += len(graph.edges)
            post_init(graph)

        self._patch(SimpleGraph, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def _counted_generator(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def _count_key(self, oracle: str, n: int, d: int) -> None:
        key = (oracle, n, d)
        self._last_cold = key not in self._keys_seen
        if not self._last_cold:
            self.counts["maximal.cache_hits"] += 1
            return
        self._keys_seen.add(key)
        if oracle == "graphs":
            # computed, not observed: the oracle scans every m-edge subset
            self.counts["maximal.labeled_graphs"] += math.comb(n * (n - 1) // 2, n - 1 + d)

    def _count_accepted(self, image) -> None:
        if self._last_cold:
            self.counts["partitions.accepted"] += len(image)

    def _count_report(self, report) -> None:
        self.counts["maximal.image_size"] += len(report.all_sequences)
        self.counts["maximal.maximal_size"] += len(report.maximal)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of this process's spans."""
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        total = len(starts)
        covered = [0.0] * total
        for i in range(total):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = Counter(names)
        self_s = [0.0] * len(self.names)
        dur_s = [0.0] * len(self.names)
        for i in range(total):
            dur = ends[i] - starts[i]
            self_s[names[i]] += dur - covered[i]
            dur_s[names[i]] += dur
        maxel = self._ids.get("maximal.maximal_elements")
        enum = self._ids.get("maximal.enumerate_connected_sequences")
        enum_under_maxel = 0.0
        for i in range(total):
            if names[i] == enum and parents[i] >= 0 and names[parents[i]] == maxel:
                enum_under_maxel += ends[i] - starts[i]

        def span_calls(name: str) -> int:
            return sum(calls[self._ids[n]] for n in GROUPS.get(name, (name,)) if n in self._ids)

        def span_self(name: str) -> float:
            return sum(self_s[self._ids[n]] for n in GROUPS.get(name, (name,)) if n in self._ids)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            if name.endswith(".calls"):
                out[name] = span_calls(name[: -len(".calls")])
            elif name.endswith(".self_s") and name != "maximal.filter.self_s":
                out[name] = span_self(name[: -len(".self_s")])
        out["graphs.edits"] = span_calls("graphs.edits")
        out["realizability.hh_steps"] = span_calls("realizability.hh_reduce")
        out["realizability.certificate.conclusive_ratio"] = ratio(
            c["certificate.conclusive"], span_calls("realizability.non_graphical_certificate")
        )
        out["maximal.filter.self_s"] = (
            (dur_s[maxel] if maxel is not None else 0.0) - enum_under_maxel
        )
        out["maximal.partitions.accept_ratio"] = ratio(
            c["partitions.accepted"], c["maximal.partitions_visited"]
        )
        for key in (
            "orders.transfers", "graphs.edge_copies", "maximal.partitions_visited",
            "maximal.labeled_graphs", "maximal.cache_hits", "maximal.image_size",
            "maximal.maximal_size",
        ):
            out[key] = c[key]
        out["trace.spans"] = total
        return out

    def write_spans(self, path: str) -> None:
        """Write PATH.json (names, count) and PATH.bin (the four arrays in turn)."""
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.span_start),
                       "arrays": ["name:H", "start:d", "end:d", "parent:q"]}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)
