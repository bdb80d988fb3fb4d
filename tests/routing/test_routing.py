"""Tests for the routing strategies, including Algorithms 1 and 2."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.pql.parser import parse
from repro.routing.balanced import BalancedRouting
from repro.routing.base import TableRoutingSnapshot, coverage_is_exact
from repro.routing.large_cluster import (
    LargeClusterRouting,
    filter_routing_tables,
    generate_routing_table,
    routing_table_metric,
)
from repro.routing.partition_aware import (
    PartitionAwareRouting,
    partitions_for_query,
)


def make_snapshot(num_segments=30, num_servers=10, replication=3, seed=0):
    rng = random.Random(seed)
    servers = [f"server-{i}" for i in range(num_servers)]
    mapping = {
        f"seg-{i}": rng.sample(servers, replication)
        for i in range(num_segments)
    }
    return TableRoutingSnapshot(segment_to_instances=mapping)


QUERY = parse("SELECT count(*) FROM t")


class TestBalanced:
    def test_coverage_exact(self):
        snapshot = make_snapshot()
        routing = BalancedRouting(rng=random.Random(1))
        routing.rebuild(snapshot)
        table = routing.route(QUERY)
        assert coverage_is_exact(table,
                                 set(snapshot.segment_to_instances))

    def test_load_balanced(self):
        snapshot = make_snapshot(num_segments=100, num_servers=5,
                                 replication=3)
        routing = BalancedRouting(rng=random.Random(1))
        routing.rebuild(snapshot)
        table = routing.route(QUERY)
        counts = [len(v) for v in table.values()]
        assert max(counts) - min(counts) <= 5

    def test_route_before_rebuild_rejected(self):
        with pytest.raises(RoutingError):
            BalancedRouting().route(QUERY)

    def test_segment_without_replica_rejected(self):
        snapshot = TableRoutingSnapshot({"seg-0": []})
        with pytest.raises(RoutingError):
            BalancedRouting().rebuild(snapshot)


class TestAlgorithm1:
    def test_coverage_exact(self):
        snapshot = make_snapshot(num_segments=50, num_servers=20,
                                 replication=3)
        table = generate_routing_table(snapshot, target=6,
                                       rng=random.Random(2))
        assert coverage_is_exact(table,
                                 set(snapshot.segment_to_instances))

    def test_server_count_near_target(self):
        snapshot = make_snapshot(num_segments=50, num_servers=20,
                                 replication=3)
        tables = [
            generate_routing_table(snapshot, target=6,
                                   rng=random.Random(seed))
            for seed in range(10)
        ]
        sizes = [len(t) for t in tables]
        # Approximately minimal: at or above the target (it is a lower
        # bound), and clearly below "every server" — the point of the
        # strategy is bounding per-query fan-out, not exact set cover.
        assert min(sizes) >= 6
        assert max(sizes) < 20
        assert sum(sizes) / len(sizes) <= 15

    def test_fewer_servers_than_target_uses_all(self):
        snapshot = make_snapshot(num_segments=20, num_servers=4,
                                 replication=2)
        table = generate_routing_table(snapshot, target=8,
                                       rng=random.Random(0))
        assert coverage_is_exact(table,
                                 set(snapshot.segment_to_instances))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_coverage_property(self, seed):
        snapshot = make_snapshot(
            num_segments=25, num_servers=12, replication=2,
            seed=seed % 7,
        )
        table = generate_routing_table(snapshot, target=5,
                                       rng=random.Random(seed))
        assert coverage_is_exact(table,
                                 set(snapshot.segment_to_instances))


class TestAlgorithm2:
    def test_keeps_requested_count(self):
        snapshot = make_snapshot(num_segments=60, num_servers=20,
                                 replication=3)
        tables = filter_routing_tables(snapshot, target=6, keep=5,
                                       generate=50, rng=random.Random(3))
        assert len(tables) == 5
        for table in tables:
            assert coverage_is_exact(table,
                                     set(snapshot.segment_to_instances))

    def test_selection_improves_metric(self):
        snapshot = make_snapshot(num_segments=60, num_servers=20,
                                 replication=3)
        rng = random.Random(3)
        all_metrics = [
            routing_table_metric(generate_routing_table(snapshot, 6, rng))
            for __ in range(50)
        ]
        kept = filter_routing_tables(snapshot, target=6, keep=5,
                                     generate=50, rng=random.Random(3))
        kept_worst = max(routing_table_metric(t) for t in kept)
        # The kept tables' worst metric must beat the average candidate.
        assert kept_worst <= sum(all_metrics) / len(all_metrics)

    def test_invalid_parameters(self):
        snapshot = make_snapshot()
        with pytest.raises(RoutingError):
            filter_routing_tables(snapshot, 5, keep=10, generate=5,
                                  rng=random.Random(0))

    def test_strategy_wrapper(self):
        snapshot = make_snapshot(num_segments=40, num_servers=15,
                                 replication=3)
        routing = LargeClusterRouting(target_servers=5, keep_tables=4,
                                      generate_tables=20,
                                      rng=random.Random(1))
        routing.rebuild(snapshot)
        table = routing.route(QUERY)
        assert coverage_is_exact(table,
                                 set(snapshot.segment_to_instances))
        assert len(table) < 15


class TestPartitionAware:
    def make_partitioned_snapshot(self):
        from repro.kafka.partitioner import kafka_partition

        servers = [f"server-{i}" for i in range(8)]
        mapping, partitions = {}, {}
        for p in range(8):
            for seq in range(3):
                name = f"t__{p}__{seq}"
                mapping[name] = [servers[p], servers[(p + 1) % 8]]
                partitions[name] = p
        return TableRoutingSnapshot(
            segment_to_instances=mapping,
            segment_partitions=partitions,
            partition_column="memberId",
            num_partitions=8,
        )

    def test_partitions_for_query_eq(self):
        query = parse("SELECT count(*) FROM t WHERE memberId = 42")
        partitions = partitions_for_query(query, "memberId", 8)
        from repro.kafka.partitioner import kafka_partition

        assert partitions == {kafka_partition(42, 8)}

    def test_partitions_for_query_in(self):
        query = parse(
            "SELECT count(*) FROM t WHERE memberId IN (1, 2, 3)"
        )
        assert len(partitions_for_query(query, "memberId", 8)) <= 3

    def test_no_constraint_returns_none(self):
        query = parse("SELECT count(*) FROM t WHERE other = 5")
        assert partitions_for_query(query, "memberId", 8) is None

    def test_or_on_partition_column_returns_none(self):
        query = parse(
            "SELECT count(*) FROM t WHERE memberId = 1 OR other = 2"
        )
        assert partitions_for_query(query, "memberId", 8) is None

    def test_float_literal_gives_no_partition(self):
        # No stored key hashes like "7.0": never guess a partition.
        for where in ("memberId = 7.0", "memberId IN (7, 8.0)"):
            query = parse(f"SELECT count(*) FROM t WHERE {where}")
            assert partitions_for_query(query, "memberId", 8) is None

    def test_float_literals_match_like_ints_through_the_cluster(self):
        from repro.cluster.pinot import PinotCluster
        from repro.cluster.table import PartitionConfig, TableConfig
        from repro.workloads import wvmp

        cluster = PinotCluster(num_servers=4)
        cluster.create_table(TableConfig.offline(
            "wvmp", wvmp.schema(), replication=1,
            partition=PartitionConfig("vieweeId", 4),
            routing_strategy="partition_aware",
        ))
        records = wvmp.generate_records(4_000, seed=3)
        cluster.upload_records("wvmp", records, rows_per_segment=500)
        k, j = records[0]["vieweeId"], records[1]["vieweeId"]
        count = "SELECT count(*) FROM wvmp WHERE "

        def matching(*ids):
            return sum(r["vieweeId"] in ids for r in records)

        assert matching(k) > 0
        for where, expected in (
            (f"vieweeId = {k}", matching(k)),
            (f"vieweeId = {k}.0", matching(k)),
            (f"vieweeId IN ({k}, {j}.0)", matching(k, j)),
        ):
            response = cluster.execute(count + where)
            assert response.rows[0][0] == expected, where

    def test_routes_only_relevant_partition(self):
        from repro.kafka.partitioner import kafka_partition

        snapshot = self.make_partitioned_snapshot()
        routing = PartitionAwareRouting(rng=random.Random(5))
        routing.rebuild(snapshot)
        query = parse("SELECT count(*) FROM t WHERE memberId = 77")
        table = routing.route(query)
        partition = kafka_partition(77, 8)
        expected = {f"t__{partition}__{seq}" for seq in range(3)}
        routed = {seg for segs in table.values() for seg in segs}
        assert routed == expected
        assert len(table) <= 2

    def test_falls_back_to_balanced_without_constraint(self):
        snapshot = self.make_partitioned_snapshot()
        routing = PartitionAwareRouting(rng=random.Random(5))
        routing.rebuild(snapshot)
        query = parse("SELECT count(*) FROM t WHERE day > 5")
        table = routing.route(query)
        assert coverage_is_exact(table,
                                 set(snapshot.segment_to_instances))

    def test_requires_partition_config(self):
        routing = PartitionAwareRouting()
        with pytest.raises(RoutingError):
            routing.rebuild(make_snapshot())
