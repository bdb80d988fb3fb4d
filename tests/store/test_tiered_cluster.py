"""Tiered storage through the whole cluster: lazy loads, budget
pressure, the eviction → invalidation chain, controller retention
tiering, cold-load tracing over the transport, and metrics export."""

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.net import LinkModel, SimClock, Transport
from repro.store import DEEPSTORE_ADDRESS
from repro.upsert import UpsertConfig


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("country"), metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])


def records(days, per_day=10):
    return [{"country": "us" if i % 2 else "de", "views": i, "day": day}
            for day in days for i in range(per_day)]


def spans_named(tree, name):
    found = [tree] if tree["name"] == name else []
    for child in tree["children"]:
        found.extend(spans_named(child, name))
    return found


def total_resident(cluster, table):
    return sum(
        1 for server in cluster.servers
        for entry in server.segment_cache.entries(table)
        if entry.resident
    )


class TestLazyLoading:
    def test_uploaded_segments_stay_remote_until_queried(self, schema):
        cluster = PinotCluster(num_servers=2,
                               store_budget_bytes=1 << 20)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000, 17001]),
                               rows_per_segment=10)
        table = "events_OFFLINE"
        # ONLINE transitions registered refs without loading payloads.
        assert total_resident(cluster, table) == 0
        hosted = sum(len(server.segment_cache.names(table))
                     for server in cluster.servers)
        assert hosted > 0
        # Doc counts are exact from the refs alone.
        assert sum(s.num_docs(table) for s in cluster.servers) == 20

        response = cluster.execute("SELECT sum(views) FROM events")
        assert response.rows[0][0] == 2 * sum(range(10))
        assert total_resident(cluster, table) > 0
        misses = sum(s.metrics.count("store_misses")
                     for s in cluster.servers)
        assert misses > 0

    def test_results_identical_across_evict_and_reload(self, schema):
        cluster = PinotCluster(num_servers=2, store_budget_bytes=1 << 20)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000, 17001, 17002]),
                               rows_per_segment=7)
        queries = [
            "SELECT count(*) FROM events",
            "SELECT sum(views) FROM events GROUP BY country",
            "SELECT min(views), max(views) FROM events WHERE day > 17000",
        ]
        before = [cluster.execute(q + " OPTION(skipCache=true)").rows
                  for q in queries]
        for server in cluster.servers:
            assert server.segment_cache.evict_all() > 0
        assert total_resident(cluster, "events_OFFLINE") == 0
        after = [cluster.execute(q + " OPTION(skipCache=true)").rows
                 for q in queries]
        assert before == after

    def test_budget_pressure_keeps_serving(self, schema):
        """A budget far smaller than the table forces constant
        evict/reload churn; answers must not change."""
        cluster = PinotCluster(num_servers=1, store_budget_bytes=2500,
                               store_policy="sieve")
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records(
            "events", records([17000, 17001, 17002, 17003], per_day=30),
            rows_per_segment=30,
        )
        for __ in range(3):
            response = cluster.execute(
                "SELECT count(*) FROM events OPTION(skipCache=true)")
            assert response.rows[0][0] == 120
        server = cluster.servers[0]
        assert server.metrics.count("store_evictions") > 0
        cache = server.segment_cache
        assert cache.resident_bytes <= cache.budget_bytes


class TestEvictionInvalidation:
    def test_eviction_publishes(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000]))
        cluster.execute("SELECT sum(views) FROM events")
        server = cluster.servers[0]

        epoch = cluster.helix.table_epoch("events_OFFLINE")
        assert server.segment_cache.evict_all() == 1
        # One bump per evicted segment, on its table only.
        assert cluster.helix.table_epoch("events_OFFLINE") == epoch + 1
        assert cluster.helix.table_epoch("events_REALTIME") == 0

    def test_broker_cache_rotates_on_eviction(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000]))
        pql = "SELECT count(*) FROM events"
        cluster.execute(pql)
        assert cluster.execute(pql).cache_hit
        cluster.servers[0].segment_cache.evict_all()
        # The epoch bump changed every key: no stale hit possible.
        response = cluster.execute(pql)
        assert not response.cache_hit
        assert response.rows[0][0] == 10


class TestRetentionTiering:
    def _cluster(self, schema):
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(TableConfig.offline(
            "events", schema, tier_to_remote_after=2,
        ))
        cluster.upload_records("events", records([17000]),
                               rows_per_segment=100)
        cluster.upload_records("events", records([17005]),
                               rows_per_segment=100)
        return cluster

    def test_aged_segments_go_remote_only_but_stay_queryable(self, schema):
        cluster = self._cluster(schema)
        baseline = cluster.execute(
            "SELECT count(*) FROM events OPTION(skipCache=true)").rows
        epoch = cluster.helix.table_epoch("events_OFFLINE")

        tiered = cluster.run_tiering(now=17006)
        assert tiered == ["events_OFFLINE_00000"]  # day 17000 aged out
        # One bump for the tiered segment; a hosting server's eviction
        # of its payload may add one more.
        assert cluster.helix.table_epoch("events_OFFLINE") > epoch
        meta = cluster.helix.get_property(
            "segments/events_OFFLINE/events_OFFLINE_00000")
        assert meta["tier"] == "remote"
        for server in cluster.servers:
            entry = server.segment_cache.entry("events_OFFLINE",
                                               tiered[0])
            if entry is not None:
                assert entry.remote_only
                assert not entry.resident

        # Still queryable, and the load is transient (per-query pin).
        after = cluster.execute(
            "SELECT count(*) FROM events OPTION(skipCache=true)").rows
        assert after == baseline
        for server in cluster.servers:
            entry = server.segment_cache.entry("events_OFFLINE",
                                               tiered[0])
            if entry is not None:
                assert not entry.resident

        # Idempotent: already-tiered segments are not re-tiered.
        assert cluster.run_tiering(now=17006) == []

    def test_tiering_requires_threshold(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000]))
        assert cluster.run_tiering(now=20000) == []

    def test_tier_threshold_round_trips_config(self, schema):
        config = TableConfig.offline("events", schema,
                                     tier_to_remote_after=7)
        restored = TableConfig.from_dict(config.to_dict())
        assert restored.tier_to_remote_after == 7


class TestColdLoadTracing:
    def test_segment_load_span_carries_link_latency(self, schema):
        clock = SimClock(auto_advance=False)
        transport = Transport(clock, seed=7)
        transport.set_link(None, DEEPSTORE_ADDRESS,
                           LinkModel(latency_s=0.030))
        cluster = PinotCluster(num_servers=1, clock=clock,
                               transport=transport,
                               store_budget_bytes=1 << 20,
                               trace_sample_rate=1.0)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000]))

        response = cluster.execute(
            "SELECT count(*) FROM events OPTION(trace=true)")
        assert response.rows[0][0] == 10
        loads = spans_named(response.trace, "segment_load")
        assert len(loads) == 1
        span = loads[0]
        # The span sits on the fetch's virtual interval: at least the
        # two 30ms link crossings (request + response).
        assert span["duration_ms"] >= 60.0
        assert span["attributes"]["bytes"] > 0
        # Warm path: no further cold loads.
        warm = cluster.execute(
            "SELECT count(*) FROM events "
            "OPTION(trace=true, skipCache=true)")
        assert spans_named(warm.trace, "segment_load") == []
        server = cluster.servers[0]
        assert server.metrics.count("store_cold_fetches") == 1
        assert server.metrics.stages["segment_load"].max_ms >= 60.0

    def test_cold_read_amplifies_query_latency(self, schema):
        """The miss penalty is visible end-to-end: the first (cold)
        query takes at least the deep-store round trip longer than the
        same query warm."""
        clock = SimClock(auto_advance=False)
        transport = Transport(clock, seed=7)
        transport.set_link(None, DEEPSTORE_ADDRESS,
                           LinkModel(latency_s=0.050))
        cluster = PinotCluster(num_servers=1, clock=clock,
                               transport=transport,
                               store_budget_bytes=1 << 20)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", records([17000]))
        pql = "SELECT count(*) FROM events OPTION(skipCache=true)"
        cold = cluster.execute(pql).time_used_ms
        warm = cluster.execute(pql).time_used_ms
        assert cold >= warm + 100.0  # two 50ms crossings


class TestUpsertUnderEviction:
    def test_upsert_results_survive_evict_and_reload(self, schema):
        upsert_schema = Schema("events", [
            dimension("memberId", DataType.LONG), metric("views"),
            time_column("day", DataType.INT),
        ])
        cluster = PinotCluster(num_servers=2)
        cluster.create_kafka_topic("events-topic", 2)
        cluster.create_table(TableConfig.realtime(
            "events", upsert_schema,
            StreamConfig("events-topic", flush_threshold_rows=20),
            replication=2,
            upsert=UpsertConfig(mode="upsert", key_columns=("memberId",)),
        ))
        rows = [{"memberId": i % 8, "views": i, "day": 17000 + (i % 3)}
                for i in range(100)]
        cluster.ingest("events-topic", rows, key_column="memberId")
        cluster.drain_realtime()

        pql = ("SELECT count(*), sum(views) FROM events "
               "OPTION(skipCache=true)")
        before = cluster.execute(pql).rows
        assert before[0][0] == 8  # one live row per key
        for server in cluster.servers:
            server.segment_cache.evict_all()
        after = cluster.execute(pql).rows
        assert after == before


def test_metrics_registry_exports_store_metrics(schema):
    cluster = PinotCluster(num_servers=1, store_budget_bytes=1 << 20)
    cluster.create_table(TableConfig.offline("events", schema))
    cluster.upload_records("events", records([17000]))
    cluster.execute("SELECT count(*) FROM events")
    text = cluster.metrics_registry.export_text()
    for name in ("store_misses", "store_pins", "store_resident_bytes",
                 "store_budget_bytes"):
        assert name in text, name
