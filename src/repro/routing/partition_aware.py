"""Partition-aware routing (§4.4, Fig 16).

When a table is partitioned by a column, the router does not
pre-generate routing tables; it inspects each query's filter, computes
which partitions the filter can match using the Kafka-compatible
partition function, and routes only to the servers holding segments of
those partitions. For point-lookup-style workloads (the impression
discounting use case) this collapses per-query fan-out from "every
server" to one or two, which is what flattens the latency curve as
query rate grows.
"""

from __future__ import annotations

import random

from repro.cache.pruner import equality_constraints
from repro.errors import RoutingError
from repro.kafka.partitioner import kafka_partition
from repro.pql.ast_nodes import Query
from repro.routing.balanced import BalancedRouting
from repro.routing.base import (
    RoutingStrategy,
    RoutingTable,
    TableRoutingSnapshot,
)


def partitions_for_query(query: Query, partition_column: str,
                         num_partitions: int) -> set[int] | None:
    """Partitions the query can match, or None when not derivable.

    Only EQ / IN constraints on the partition column (at the top level
    or inside a top-level AND) prune partitions; anything else — a
    float literal included, which no stored key hashes like — means
    every partition may match.
    """
    if query.where is None:
        return None
    values = equality_constraints(query.where).get(partition_column)
    if not values:
        return None
    return {kafka_partition(v, num_partitions) for v in values}


class PartitionAwareRouting(RoutingStrategy):
    """Route to servers holding only the partitions a query can touch.

    Falls back to balanced routing for queries without a usable
    partition constraint.
    """

    def __init__(self, rng: random.Random | None = None):
        super().__init__(rng)
        self._fallback = BalancedRouting(rng=self._rng)

    def _rebuild(self, snapshot: TableRoutingSnapshot) -> None:
        if snapshot.partition_column is None or not snapshot.num_partitions:
            raise RoutingError(
                "PartitionAwareRouting requires a partitioned table"
            )
        self._fallback.rebuild(snapshot)

    def route(self, query: Query) -> RoutingTable:
        snapshot = self._snapshot
        if snapshot is None:
            raise RoutingError("routing tables not built yet")
        partitions = partitions_for_query(
            query, snapshot.partition_column, snapshot.num_partitions
        )
        if partitions is None:
            return self._fallback.route(query)

        table: RoutingTable = {}
        load: dict[str, int] = {}
        for segment, partition in snapshot.segment_partitions.items():
            if partition not in partitions:
                continue
            replicas = snapshot.segment_to_instances.get(segment, [])
            if not replicas:
                raise RoutingError(
                    f"segment {segment!r} has no live replica"
                )
            min_load = min(load.get(r, 0) for r in replicas)
            candidates = [r for r in replicas if load.get(r, 0) == min_load]
            chosen = self._rng.choice(candidates)
            table.setdefault(chosen, []).append(segment)
            load[chosen] = load.get(chosen, 0) + 1
        return table
