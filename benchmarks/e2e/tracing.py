"""Benchmark-side spans around each layer's public callable.

Nothing under ``src/`` is instrumented (that is ROADMAP item E). For a
traced run, ``install`` replaces each layer's callable *where its
caller looks it up* — a module global for ``from x import f`` call
sites, the class attribute for methods — with a wrapper that records a
span ``(id, layer, start_ns, end_ns, parent, op)`` in memory.
``uninstall`` puts the originals back, so the same process can time
untraced rounds beside traced ones and report what tracing costs.

A span's *self time* is its duration minus its child spans' durations.
Every op (one call into the facade) remembers the calibrated block it
ran in, so self times are scaled by the block's speed factor like
every other duration.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from typing import Any, Callable

from calib import Meter
from workloads import Probe

#: (layer, module, owner or None, attribute). With an owner the class
#: attribute is replaced; without, the module global.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("pql.parser", "repro.cluster.broker", None, "parse"),
    ("pql.rewriter", "repro.cluster.broker", None, "optimize"),
    ("cluster.table", "repro.cluster.table", "TableConfig", "from_dict"),
    ("zk.store", "repro.zk.store", "ZkStore", "get"),
    ("zk.store", "repro.zk.store", "ZkStore", "get_or_default"),
    ("cache.result_cache", "repro.cache.result_cache",
     "BrokerResultCache", "get"),
    ("cache.result_cache", "repro.cache.result_cache",
     "BrokerResultCache", "put"),
    ("routing", "repro.routing.balanced", "BalancedRouting", "route"),
    ("routing", "repro.routing.large_cluster", "LargeClusterRouting",
     "route"),
    ("routing", "repro.routing.partition_aware", "PartitionAwareRouting",
     "route"),
    ("cluster.broker", "repro.cluster.broker", "BrokerInstance", "execute"),
    ("net.codec.encode", "repro.net.transport", None, "encode"),
    ("net.codec.decode", "repro.net.transport", None, "decode"),
    ("net.transport", "repro.net.transport", "Transport", "request"),
    ("cluster.server", "repro.cluster.server", "ServerInstance", "execute"),
    ("cache.pruner", "repro.cluster.server", None, "prune_reason"),
    ("engine.planner", "repro.engine.executor", None, "plan_segment"),
    ("engine.executor", "repro.engine.executor", None, "execute_plan"),
    ("engine.merge.combine", "repro.cluster.server", None,
     "combine_segment_results"),
    ("engine.merge.reduce", "repro.cluster.broker", None,
     "reduce_server_results"),
    ("kafka", "repro.kafka.broker", "SimKafka", "produce_all"),
    ("cluster.server.consume", "repro.cluster.server", "ServerInstance",
     "consume_tick"),
    ("segment.mutable.index", "repro.segment.mutable", "MutableSegment",
     "index"),
    ("segment.mutable.index", "repro.segment.mutable", "MutableSegment",
     "index_all"),
    ("cluster.completion", "repro.cluster.completion",
     "SegmentCompletionManager", "segment_consumed"),
    ("cluster.completion", "repro.cluster.completion",
     "SegmentCompletionManager", "segment_commit"),
    ("segment.mutable.snapshot", "repro.segment.mutable", "MutableSegment",
     "snapshot"),
    ("segment.mutable.seal", "repro.segment.mutable", "MutableSegment",
     "seal"),
    ("segment.builder", "repro.segment.builder", "SegmentBuilder", "build"),
    ("cluster.controller", "repro.cluster.controller", "Controller",
     "upload_segment"),
)

#: Layers reported per 1 000 rows pushed or ingested (over every traced
#: op); every other layer is reported per query (over query ops only).
PER_KROW = frozenset((
    "kafka", "cluster.server.consume", "segment.mutable.index",
    "cluster.completion", "segment.mutable.seal", "segment.builder",
    "cluster.controller",
))


def wire_bytes(tree: Any) -> int:
    """Size of an encoded tree as compact JSON text, except that a
    float counts 8 bytes whatever its digits (trees carry measured
    times; the count must repeat exactly for a seed)."""
    if isinstance(tree, float):
        return 8
    if isinstance(tree, str):
        return len(tree) + 2
    if isinstance(tree, list):
        return 1 + len(tree) + sum(map(wire_bytes, tree))
    if isinstance(tree, dict):
        return 1 + len(tree) + sum(len(key) + 3 + wire_bytes(value)
                                   for key, value in tree.items())
    return len(str(tree))  # int, bool, None


class Recorder(Probe):
    """Spans and counts of a traced run, kept in memory."""

    def __init__(self, meter: Meter):
        self._meter = meter
        self._clock = meter.clock
        # One span per index, in flat integer arrays: a list of tuples
        # would hand the collector 10^5 tracked objects, and its full
        # passes would land inside the timed queries.
        self._layer = array("q")   # index into ``layers``
        self._start = array("q")   # ns
        self._end = array("q")     # ns
        self._parent = array("q")  # span index, or -1
        self._span_op = array("q")  # index into ``ops``
        self.layers: list[str] = list(dict.fromkeys(t[0] for t in TARGETS))
        #: Per op: (kind, block index, rows pushed or ingested).
        self.ops: list[tuple[str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._kind = ""
        self._wire: list[Any] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- the Probe interface (called by the workload loops) --------------

    def begin_op(self, kind: str) -> None:
        self._op = len(self.ops)
        self._kind = kind
        self._stack.clear()

    def end_op(self, response: Any = None, rows: int = 0) -> None:
        if self._op < 0:
            return
        # The op's block closes after it: its factor is the next one.
        self.ops.append((self._kind, len(self._meter.factors), rows))
        self._op = -1
        if self._kind == "query":
            self._count_query(response)
        self._wire.clear()

    def _count_query(self, response: Any) -> None:
        counts = self.counts
        counts["queries"] += 1
        for tree in self._wire:
            counts["wire_bytes"] += wire_bytes(tree)
        if response is None:
            return
        stats = response.stats
        pruned_by_broker = response.num_segments_pruned_by_broker
        counts["cache_hits"] += bool(response.cache_hit)
        counts["servers"] += response.num_servers_queried
        counts["segments"] += stats.num_segments_processed
        counts["docs_scanned"] += stats.num_docs_scanned
        counts["entries_in_filter"] += stats.num_entries_scanned_in_filter
        counts["segments_pruned"] += (stats.num_segments_pruned_by_server
                                      + pruned_by_broker)
        counts["segments_considered"] += (stats.num_segments_queried
                                          + pruned_by_broker)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack, clock = self._stack, self._clock
        layers, starts, ends = self._layer, self._start, self._end
        parents, span_ops = self._parent, self._span_op
        layer_index = self.layers.index(layer)
        keeps_wire = layer == "net.codec.encode"

        def wrapper(*args, **kwargs):
            op = self._op
            if op < 0:  # outside any op (verification, warm-up)
                return fn(*args, **kwargs)
            span = len(starts)
            layers.append(layer_index)
            parents.append(stack[-1] if stack else -1)
            span_ops.append(op)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if keeps_wire:
                self._wire.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @property
    def span_count(self) -> int:
        return len(self._start)

    @property
    def spans(self) -> list[tuple[int, str, int, int, int, int]]:
        """``(id, layer, start_ns, end_ns, parent, op)`` per span."""
        names = self.layers
        return [(i, names[self._layer[i]], self._start[i], self._end[i],
                 self._parent[i], self._span_op[i])
                for i in range(len(self._start))]

    def install(self) -> None:
        assert not self._originals, "already installed"
        for layer, module_name, owner_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__[attribute] if owner_name
                        else getattr(module, attribute))
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(layer, original.__func__))
            else:
                wrapped = self._wrap(layer, original)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- reduction -------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, dict[str, float]],
                                    dict[str, dict[str, int]]]:
        """Calibrated self time (ns) and span count per layer, split by
        the kind of op the span ran in: ``totals[layer][kind]``."""
        factors = self._meter.factors
        spans = self.spans
        child_time: dict[int, int] = defaultdict(int)
        for _, _, started, ended, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += ended - started
        self_ns: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        calls: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        for span_id, layer, started, ended, _, op in spans:
            kind, block, _ = self.ops[op]
            own = (ended - started) - child_time.get(span_id, 0)
            self_ns[layer][kind] += own * factors[block]
            calls[layer][kind] += 1
        return self_ns, calls

    def pushed_builds(self) -> int:
        """``SegmentBuilder.build`` calls that made a sealed or pushed
        segment (not a consuming segment's query snapshot)."""
        builder = self.layers.index("segment.builder")
        snapshot = self.layers.index("segment.mutable.snapshot")
        layer, parent = self._layer, self._parent
        return sum(
            1 for span, index in enumerate(layer)
            if index == builder
            and (parent[span] < 0 or layer[parent[span]] != snapshot)
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, layer, started, ended, parent, op in self.spans:
                out.write(json.dumps({
                    "id": span_id, "layer": layer, "start_ns": started,
                    "end_ns": ended, "parent": parent, "op": op,
                    "kind": self.ops[op][0],
                }) + "\n")


def layer_metrics(recorder: Recorder, query_wall_ns: float) -> dict:
    """Every per-layer metric the spans and counts support, by name.
    ``query_wall_ns`` is the calibrated time the benchmark measured
    around the traced queries (for ``trace.coverage_ratio``)."""
    self_ns, calls = recorder.layer_totals()
    counts = recorder.counts
    queries = max(1, counts["queries"])
    krows = max(1e-9, sum(op[2] for op in recorder.ops) / 1000.0)

    def per_op(layer: str) -> float:
        return self_ns[layer]["query"] / queries / 1e3

    def per_krow(layer: str) -> float:
        return sum(self_ns[layer].values()) / krows / 1e3

    def calls_per_op(layer: str) -> float:
        return calls[layer]["query"] / queries

    metrics = {}
    for layer in dict.fromkeys(target[0] for target in TARGETS):
        if layer == "zk.store":
            continue  # reported as a count only
        if layer in PER_KROW:
            metrics[f"{layer}.self_us_per_krow"] = per_krow(layer)
        else:
            metrics[f"{layer}.self_us_per_op"] = per_op(layer)
    for layer in ("cluster.table", "cluster.broker", "net.codec.encode",
                  "net.codec.decode", "net.transport", "engine.planner",
                  "engine.executor", "segment.mutable.snapshot"):
        metrics[f"{layer}.calls_per_op"] = calls_per_op(layer)
    metrics["zk.store.reads_per_op"] = calls_per_op("zk.store")
    metrics["cache.result_cache.hit_ratio"] = counts["cache_hits"] / queries
    metrics["cluster.broker.servers_per_op"] = counts["servers"] / queries
    metrics["net.codec.wire_bytes_per_op"] = counts["wire_bytes"] / queries
    metrics["cache.pruner.pruned_ratio"] = (
        counts["segments_pruned"] / max(1, counts["segments_considered"]))
    metrics["engine.executor.segments_per_op"] = counts["segments"] / queries
    metrics["engine.executor.docs_scanned_per_op"] = (
        counts["docs_scanned"] / queries)
    metrics["engine.executor.entries_in_filter_per_op"] = (
        counts["entries_in_filter"] / queries)
    metrics["segment.builder.seals_per_krow"] = (
        recorder.pushed_builds() / krows)
    explained = sum(by_kind["query"] for by_kind in self_ns.values())
    metrics["trace.coverage_ratio"] = explained / max(1.0, query_wall_ns)
    return metrics
