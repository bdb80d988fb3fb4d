"""Routing strategy interface (§4.4).

A *routing table* maps servers to the subset of segments each should
process for one query, such that the union of the subsets covers every
segment of the table exactly once. Brokers pre-generate several routing
tables per table and pick one at random per query (§3.3.3 step 2);
strategies rebuild their tables whenever the external view changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.pql.ast_nodes import Query

#: server -> segments to process there.
RoutingTable = dict[str, list[str]]


@dataclass
class TableRoutingSnapshot:
    """What a strategy needs to know to build routing tables."""

    #: segment -> replicas currently serving it (ONLINE/CONSUMING).
    segment_to_instances: dict[str, list[str]]
    #: segment -> partition id (only for partitioned tables).
    segment_partitions: dict[str, int] = field(default_factory=dict)
    partition_column: str | None = None
    num_partitions: int | None = None
    #: The table's time column: the one zone map a segment's ZK record
    #: publishes, which the broker prunes by before the scatter.
    time_column: str | None = None

    @property
    def instances(self) -> list[str]:
        out: set[str] = set()
        for replicas in self.segment_to_instances.values():
            out.update(replicas)
        return sorted(out)

    def instance_to_segments(self) -> dict[str, list[str]]:
        mapping: dict[str, list[str]] = {}
        for segment, replicas in self.segment_to_instances.items():
            for instance in replicas:
                mapping.setdefault(instance, []).append(segment)
        return mapping


class RoutingStrategy:
    """Builds routing tables from a snapshot and serves per-query routes."""

    def __init__(self, rng: random.Random | None = None):
        self._rng = rng or random.Random(0)
        self._snapshot: TableRoutingSnapshot | None = None

    @property
    def snapshot(self) -> TableRoutingSnapshot | None:
        """The snapshot the current routing tables were built from."""
        return self._snapshot

    def rebuild(self, snapshot: TableRoutingSnapshot) -> None:
        """Retain the snapshot and rebuild the strategy's tables."""
        self._snapshot = snapshot
        self._rebuild(snapshot)

    def _rebuild(self, snapshot: TableRoutingSnapshot) -> None:
        """Strategy-specific table construction (override point)."""
        raise NotImplementedError

    def route(self, query: Query) -> RoutingTable:
        """Pick a routing table for one query."""
        raise NotImplementedError

    def reselect(self, segments: list[str],
                 exclude: set[str]) -> tuple[RoutingTable, list[str]]:
        """Re-pick replicas for ``segments``, avoiding ``exclude``.

        This is the broker's failover primitive: when a sub-request
        fails, the failed server's segments are re-assigned to other
        replicas from the same snapshot. It is also the hedging
        primitive (``repro.net``): a straggling sub-request past its
        latency-percentile budget is re-issued to the replica this
        method picks, first response wins. Returns the replacement
        routing table plus the segments with no remaining replica
        (which can only be answered partially).
        """
        if self._snapshot is None:
            raise RoutingError("routing tables not built yet")
        table: RoutingTable = {}
        load: dict[str, int] = {}
        unroutable: list[str] = []
        for segment in segments:
            replicas = [
                replica
                for replica in self._snapshot.segment_to_instances.get(
                    segment, ())
                if replica not in exclude
            ]
            if not replicas:
                unroutable.append(segment)
                continue
            min_load = min(load.get(r, 0) for r in replicas)
            candidates = [r for r in replicas if load.get(r, 0) == min_load]
            chosen = self._rng.choice(candidates)
            table.setdefault(chosen, []).append(segment)
            load[chosen] = load.get(chosen, 0) + 1
        return table, unroutable

    @property
    def name(self) -> str:
        return type(self).__name__


def coverage_is_exact(table: RoutingTable,
                      segments: set[str]) -> bool:
    """Check the defining invariant: every segment appears exactly once."""
    seen: list[str] = []
    for assigned in table.values():
        seen.extend(assigned)
    return len(seen) == len(set(seen)) and set(seen) == segments
