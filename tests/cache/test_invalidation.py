"""End-to-end cache invalidation: every data-changing path must bump
the table epoch (or change the consuming fingerprint) so no stale
result can ever be served from the broker cache."""

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("memberId", DataType.LONG), dimension("country"),
        metric("views", DataType.LONG), time_column("day", DataType.INT),
    ])


def offline_cluster(schema, replication=1, num_servers=2, num_minions=1):
    cluster = PinotCluster(num_servers=num_servers,
                           num_minions=num_minions)
    cluster.create_table(TableConfig.offline("events", schema,
                                             replication=replication))
    records = [{"memberId": i % 10, "country": "us", "views": 1,
                "day": 17000} for i in range(100)]
    cluster.upload_records("events", records, rows_per_segment=25)
    return cluster


def ground_truth(cluster, pql):
    """The uncached, unpruned answer."""
    return cluster.execute(pql + " OPTION(skipCache=true)").rows


class TestRealtimeFreshness:
    def test_new_events_invalidate_by_offset_fingerprint(self, schema):
        """Consuming offsets are part of the key: any newly consumed
        event makes the old entry unreachable — zero staleness even
        without a completion."""
        cluster = PinotCluster(num_servers=2)
        cluster.create_kafka_topic("events-rt", 1)
        cluster.create_table(TableConfig.realtime(
            "events", schema,
            StreamConfig("events-rt", flush_threshold_rows=100_000),
        ))
        broker = cluster.brokers[0]
        pql = "SELECT count(*) FROM events WHERE country = 'us'"

        cluster.ingest("events-rt", [
            {"memberId": i, "country": "us", "views": 1, "day": 17000}
            for i in range(100)
        ])
        cluster.drain_realtime()
        first = broker.execute(pql)
        hit = broker.execute(pql)
        assert hit.cache_hit and hit.rows == first.rows

        cluster.ingest("events-rt", [
            {"memberId": 1, "country": "us", "views": 1, "day": 17000}
            for __ in range(50)
        ])
        cluster.drain_realtime()
        fresh = broker.execute(pql)
        assert not fresh.cache_hit
        assert fresh.rows[0][0] == 150
        assert fresh.rows == ground_truth(cluster, pql)

    def test_segment_completion_bumps_epoch(self, schema):
        cluster = PinotCluster(num_servers=2)
        cluster.create_kafka_topic("events-rt", 1)
        cluster.create_table(TableConfig.realtime(
            "events", schema,
            StreamConfig("events-rt", flush_threshold_rows=60,
                         records_per_poll=30),
        ))
        broker = cluster.brokers[0]
        epoch_before = cluster.helix.table_epoch("events_REALTIME")
        cluster.ingest("events-rt", [
            {"memberId": i, "country": "us", "views": 1, "day": 17000}
            for i in range(100)
        ])
        cluster.drain_realtime()  # completes at least one segment
        assert cluster.helix.table_epoch("events_REALTIME") > epoch_before

        pql = "SELECT count(*) FROM events WHERE country = 'us'"
        response = broker.execute(pql)
        assert response.rows[0][0] == 100
        assert response.rows == ground_truth(cluster, pql)


class TestMinionReplacement:
    PQL = "SELECT count(*) FROM events WHERE memberId IN (3, 7)"

    def test_purge_prevents_stale_hit(self, schema):
        cluster = offline_cluster(schema)
        broker = cluster.brokers[0]
        stale = broker.execute(self.PQL)
        assert stale.rows[0][0] == 20
        assert broker.execute(self.PQL).cache_hit  # entry is live

        epoch_before = cluster.helix.table_epoch("events_OFFLINE")
        cluster.leader_controller().schedule_task(
            "purge", "events_OFFLINE",
            {"column": "memberId", "values": [3, 7]},
        )
        cluster.run_minions()
        assert cluster.helix.table_epoch("events_OFFLINE") > epoch_before

        hits_before = broker.metrics.count("cache_hits")
        fresh = broker.execute(self.PQL)
        assert not fresh.cache_hit
        assert fresh.rows[0][0] == 0
        assert fresh.rows == ground_truth(cluster, self.PQL)
        assert broker.metrics.count("cache_hits") == hits_before

    def test_add_inverted_index_invalidates(self, schema):
        """Index backfill replaces segments; results are identical, but
        correctness requires the epoch to move anyway."""
        cluster = offline_cluster(schema)
        broker = cluster.brokers[0]
        broker.execute(self.PQL)
        epoch_before = cluster.helix.table_epoch("events_OFFLINE")
        cluster.leader_controller().schedule_task(
            "add_inverted_index", "events_OFFLINE",
            {"column": "memberId"},
        )
        cluster.run_minions()
        assert cluster.helix.table_epoch("events_OFFLINE") > epoch_before
        fresh = broker.execute(self.PQL)
        assert not fresh.cache_hit
        assert fresh.rows[0][0] == 20


class TestServerDeathAndFailover:
    def test_server_death_prevents_stale_hit(self, schema):
        cluster = offline_cluster(schema, replication=2, num_servers=2)
        broker = cluster.brokers[0]
        pql = "SELECT count(*) FROM events"
        broker.execute(pql)
        assert broker.execute(pql).cache_hit

        epoch_before = cluster.helix.table_epoch("events_OFFLINE")
        cluster.kill_server("server-0")
        assert cluster.helix.table_epoch("events_OFFLINE") > epoch_before

        fresh = broker.execute(pql)
        assert not fresh.cache_hit
        assert not fresh.is_partial  # surviving replica serves all
        assert fresh.rows[0][0] == 100
        assert fresh.rows == ground_truth(cluster, pql)

    def test_failover_response_cacheable_and_correct(self, schema):
        """A crashed (but not deregistered) server forces replica
        failover; the recovered response is complete, so it may be
        cached — and repeating it must stay correct."""
        cluster = offline_cluster(schema, replication=2, num_servers=2)
        broker = cluster.brokers[0]
        cluster.crash_server("server-0")
        pql = "SELECT count(*) FROM events"
        recovered = broker.execute(pql)
        assert not recovered.is_partial
        assert recovered.rows[0][0] == 100
        again = broker.execute(pql)
        assert again.rows[0][0] == 100

    def test_upload_invalidates(self, schema):
        cluster = offline_cluster(schema)
        broker = cluster.brokers[0]
        pql = "SELECT count(*) FROM events"
        assert broker.execute(pql).rows[0][0] == 100
        cluster.upload_records("events", [
            {"memberId": 99, "country": "ca", "views": 1, "day": 17001}
        ])
        fresh = broker.execute(pql)
        assert not fresh.cache_hit
        assert fresh.rows[0][0] == 101

    def test_retention_delete_invalidates(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema,
                                                 retention=10))
        cluster.upload_records("events", [
            {"memberId": 1, "country": "us", "views": 1, "day": 17000}
            for __ in range(50)
        ])
        cluster.upload_records("events", [
            {"memberId": 2, "country": "us", "views": 1, "day": 17099}
            for __ in range(50)
        ])
        broker = cluster.brokers[0]
        pql = "SELECT count(*) FROM events"
        assert broker.execute(pql).rows[0][0] == 100
        deleted = cluster.run_retention(now=17100)
        assert deleted  # the day-17000 segment is past retention
        fresh = broker.execute(pql)
        assert not fresh.cache_hit
        assert fresh.rows[0][0] == 50
