"""Broker result-cache behavior: hits, bypass, and the never-cache
rules (partial responses, exhausted deadlines)."""

import pytest

from repro.cache.result_cache import (
    BrokerResultCache,
    estimate_response_bytes,
)
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("country"), metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])


@pytest.fixture
def cluster(schema):
    cluster = PinotCluster(num_servers=2)
    cluster.create_table(TableConfig.offline("events", schema))
    records = [
        {"country": "us" if i % 2 else "ca", "views": 1,
         "day": 17000 + i % 3}
        for i in range(300)
    ]
    cluster.upload_records("events", records, rows_per_segment=100)
    return cluster


QUERY = "SELECT count(*) FROM events WHERE country = 'us'"


class TestHits:
    def test_repeat_query_hits_and_matches(self, cluster):
        broker = cluster.brokers[0]
        first = broker.execute(QUERY)
        second = broker.execute(QUERY)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.rows == first.rows
        assert broker.metrics.count("cache_misses") == 1
        assert broker.metrics.count("cache_hits") == 1
        assert broker.result_cache.stats.entries == 1

    def test_cache_stage_recorded(self, cluster):
        broker = cluster.brokers[0]
        miss = broker.execute(QUERY)
        hit = broker.execute(QUERY)
        assert "cache" in miss.stage_times_ms
        assert "cache" in hit.stage_times_ms
        # A hit never reaches scatter/gather.
        assert "scatter" not in hit.stage_times_ms

    def test_hit_skips_servers_entirely(self, cluster):
        broker = cluster.brokers[0]
        broker.execute(QUERY)
        before = sum(s.queries_executed for s in cluster.servers)
        broker.execute(QUERY)
        assert sum(s.queries_executed for s in cluster.servers) == before

    def test_hit_counts_as_served_query(self, cluster):
        broker = cluster.brokers[0]
        broker.execute(QUERY)
        broker.execute(QUERY)
        assert broker.queries_served == 2

    def test_hit_replays_query_log(self, cluster):
        """Cache hits must not starve auto-index mining (§5.2)."""
        broker = cluster.brokers[0]
        broker.execute(QUERY)
        logged = len(broker.query_log)
        broker.execute(QUERY)
        assert len(broker.query_log) == logged * 2
        assert broker.query_log[-1].filter_columns == {"country"}

    def test_different_queries_do_not_collide(self, cluster):
        broker = cluster.brokers[0]
        us = broker.execute(QUERY)
        ca = broker.execute("SELECT count(*) FROM events "
                            "WHERE country = 'ca'")
        assert not ca.cache_hit
        assert us.rows[0][0] == ca.rows[0][0] == 150


class TestBypass:
    def test_skip_cache_option(self, cluster):
        broker = cluster.brokers[0]
        first = broker.execute(QUERY + " OPTION(skipCache=true)")
        second = broker.execute(QUERY + " OPTION(skipCache=true)")
        assert not first.cache_hit and not second.cache_hit
        assert broker.metrics.count("cache_bypass") == 2
        assert len(broker.result_cache) == 0

    def test_skip_cache_does_not_read_existing_entries(self, cluster):
        broker = cluster.brokers[0]
        broker.execute(QUERY)  # populate
        bypassed = broker.execute(QUERY + " OPTION(skipCache=true)")
        assert not bypassed.cache_hit
        assert broker.metrics.count("cache_hits") == 0


class TestNeverCacheRules:
    def test_partial_response_not_cached(self, cluster):
        broker = cluster.brokers[0]
        for server in cluster.servers:
            server.faults.crash()
        partial = broker.execute(QUERY)
        assert partial.is_partial
        assert len(broker.result_cache) == 0
        again = broker.execute(QUERY)
        assert not again.cache_hit

    def test_healed_cluster_serves_fresh_after_partial(self, cluster):
        broker = cluster.brokers[0]
        for server in cluster.servers:
            server.faults.crash()
        partial = broker.execute(QUERY)
        assert partial.is_partial
        for server in cluster.servers:
            server.faults.recover()
        healed = broker.execute(QUERY)
        assert not healed.is_partial
        assert healed.rows[0][0] == 150

    def test_deadline_exhausted_not_cached(self, cluster):
        broker = cluster.brokers[0]
        response = broker.execute(QUERY + " OPTION(timeoutMs=0)")
        assert response.is_partial
        assert broker.metrics.count("deadline_exhausted") > 0
        assert len(broker.result_cache) == 0


class TestEstimator:
    def test_estimate_scales_with_rows(self, cluster):
        small = cluster.execute("SELECT count(*) FROM events")
        big = cluster.execute("SELECT country, count(*) FROM events "
                              "GROUP BY country TOP 10")
        assert estimate_response_bytes(big) > 0
        assert estimate_response_bytes(small) > 0

    def test_byte_budget_bounds_entries(self, cluster):
        tiny = BrokerResultCache(max_bytes=1)
        response = cluster.execute("SELECT count(*) FROM events")
        tiny.put(("k",), response)
        assert len(tiny) == 0  # larger than the whole budget
