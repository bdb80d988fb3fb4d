"""Tests for the broker's smart-approximation rewrite.

When ``use_approximate_function`` (broker config, off by default) or the
``OPTION(useApproximateFunction=...)`` per-query override enables it,
the broker swaps exact DISTINCTCOUNT/PERCENTILE aggregations for their
sketch variants — but only when segment-metadata estimates cross
``approx_threshold`` — records the rewrite in response metadata, and
keys the result cache on the rewritten plan so exact and approximate
answers never collide.
"""

import random

import pytest

import repro.cluster.broker as broker_module
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("country"), metric("views", DataType.LONG),
        metric("memberId", DataType.LONG),
        time_column("day", DataType.INT),
    ])


def make_records(n, distinct_members):
    rng = random.Random(2)
    return [{"country": rng.choice(["us", "ca"]),
             "views": rng.randint(0, 99),
             "memberId": rng.randrange(distinct_members),
             "day": 17000 + i % 7}
            for i in range(n)]


def make_cluster(schema, records, **kwargs):
    cluster = PinotCluster(num_servers=2, **kwargs)
    cluster.create_table(TableConfig.offline("events", schema))
    cluster.upload_records("events", records)
    return cluster


EXACT_DISTINCT = "SELECT distinctcount(memberId) FROM events"
EXACT_PERCENTILE = "SELECT percentile95(views) FROM events"


class TestEnablement:
    def test_default_off(self, schema):
        records = make_records(300, 200)
        cluster = make_cluster(schema, records)
        response = cluster.execute(EXACT_DISTINCT)
        assert response.rewrites == ()
        # exact answer, untouched
        assert response.rows[0][0] == len({r["memberId"] for r in records})

    def test_broker_config_enables(self, schema):
        cluster = make_cluster(schema, make_records(300, 200),
                               use_approximate_function=True,
                               approx_threshold=0)
        response = cluster.execute(EXACT_DISTINCT)
        assert len(response.rewrites) == 1
        assert "distinctcounthll" in response.rewrites[0]
        assert cluster.brokers[0].metrics.count("approx_rewrites") == 1

    def test_option_overrides_off_config(self, schema):
        cluster = make_cluster(schema, make_records(300, 200),
                               approx_threshold=0)
        response = cluster.execute(
            EXACT_DISTINCT + " OPTION(useApproximateFunction=true)")
        assert len(response.rewrites) == 1

    def test_option_overrides_on_config(self, schema):
        records = make_records(300, 200)
        cluster = make_cluster(schema, records,
                               use_approximate_function=True,
                               approx_threshold=0)
        response = cluster.execute(
            EXACT_DISTINCT + " OPTION(useApproximateFunction=false)")
        assert response.rewrites == ()
        assert response.rows[0][0] == len({r["memberId"] for r in records})

    def test_untargeted_query_untouched(self, schema):
        cluster = make_cluster(schema, make_records(300, 200),
                               use_approximate_function=True,
                               approx_threshold=0)
        response = cluster.execute("SELECT count(*) FROM events")
        assert response.rewrites == ()
        assert cluster.brokers[0].metrics.count("approx_rewrites") == 0


class TestThresholdGating:
    def test_distinctcount_gates_on_cardinality(self, schema):
        # 2000 rows but only 50 distinct members: the cardinality-gated
        # DISTINCTCOUNT stays exact under a threshold of 100, while the
        # row-count-gated percentile rewrites.
        cluster = make_cluster(schema, make_records(2000, 50),
                               use_approximate_function=True,
                               approx_threshold=100)
        distinct = cluster.execute(EXACT_DISTINCT)
        assert distinct.rewrites == ()
        assert distinct.rows[0][0] == 50
        percentile = cluster.execute(EXACT_PERCENTILE)
        assert len(percentile.rewrites) == 1
        assert "percentileest95" in percentile.rewrites[0]

    def test_high_threshold_blocks_all(self, schema):
        cluster = make_cluster(schema, make_records(2000, 50),
                               use_approximate_function=True,
                               approx_threshold=10_000_000)
        assert cluster.execute(EXACT_DISTINCT).rewrites == ()
        assert cluster.execute(EXACT_PERCENTILE).rewrites == ()

    def test_rewritten_answer_near_exact(self, schema):
        records = make_records(5000, 3000)
        cluster = make_cluster(schema, records,
                               use_approximate_function=True,
                               approx_threshold=0)
        exact = len({r["memberId"] for r in records})
        approx = cluster.execute(EXACT_DISTINCT).rows[0][0]
        assert abs(approx - exact) / exact < 0.08


class TestCacheInteraction:
    def test_exact_and_approx_never_collide(self, schema):
        records = make_records(1500, 1000)
        cluster = make_cluster(schema, records,
                               approx_threshold=0)
        exact = cluster.execute(EXACT_DISTINCT)
        approx = cluster.execute(
            EXACT_DISTINCT + " OPTION(useApproximateFunction=true)")
        # Same base text, different physical plan: the second run must
        # NOT hit the first run's cache entry.
        assert exact.rows[0][0] == len({r["memberId"] for r in records})
        assert len(approx.rewrites) == 1
        exact_again = cluster.execute(EXACT_DISTINCT)
        assert exact_again.rows == exact.rows

    def test_cache_hit_keeps_rewrite_metadata(self, schema):
        cluster = make_cluster(schema, make_records(1500, 1000),
                               use_approximate_function=True,
                               approx_threshold=0)
        first = cluster.execute(EXACT_DISTINCT)
        second = cluster.execute(EXACT_DISTINCT)
        assert len(first.rewrites) == 1
        assert second.rewrites == first.rewrites
        assert second.rows == first.rows
        assert cluster.brokers[0].metrics.count("cache_hits") >= 1


class TestEmptyStates:
    def test_percentile_of_no_rows_is_null(self, schema):
        cluster = make_cluster(schema, make_records(300, 200))
        for pql in (EXACT_PERCENTILE + " WHERE views > 1000000",
                    "SELECT percentileest95(views) FROM events "
                    "WHERE views > 1000000"):
            response = cluster.execute(pql)
            assert response.rows[0][0] is None, pql

    def test_grouped_percentile_empty_groups_via_having(self, schema):
        # HAVING must tolerate the None that empty sketch states
        # finalize to, rather than comparing None against a number.
        cluster = make_cluster(schema, make_records(300, 200))
        response = cluster.execute(
            "SELECT percentileest50(views) FROM events "
            "WHERE views > 1000000 GROUP BY country "
            "HAVING percentileest50(views) > 10 TOP 5")
        assert list(response.rows) == []


class TestHybridLegs:
    """A hybrid query's legs are rewritten where they stand: the same
    legs as resolving the rewritten query again, with the offline
    table's time boundary read once per query."""

    def hybrid_cluster(self, schema):
        cluster = PinotCluster(num_servers=2, use_approximate_function=True,
                               approx_threshold=0)
        cluster.create_kafka_topic("events-topic", 1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.create_table(TableConfig.realtime(
            "events", schema, StreamConfig("events-topic")))
        records = make_records(300, 200)
        cluster.upload_records(
            "events", [r for r in records if r["day"] < 17004])
        cluster.ingest("events-topic",
                       [r for r in records if r["day"] >= 17004])
        cluster.drain_realtime()
        return cluster

    def test_rewritten_legs_match_a_fresh_resolve(self, schema):
        broker = self.hybrid_cluster(schema).brokers[0]
        query, legs, rewrites = broker._maybe_rewrite_approx(
            *broker._plan(EXACT_DISTINCT + " WHERE country = 'us'"))
        assert len(rewrites) == 1 and len(legs) == 2
        assert legs == broker._resolve_physical_queries(query)
        assert [str(leg) for leg in legs] == [
            str(leg) for leg in broker._resolve_physical_queries(query)]

    def test_time_boundary_read_once(self, schema, monkeypatch):
        cluster = self.hybrid_cluster(schema)
        reads = []
        pushed = broker_module.pushed_segment_records

        def counting(helix, table):
            reads.append(table)
            return pushed(helix, table)

        monkeypatch.setattr(broker_module, "pushed_segment_records",
                            counting)
        response = cluster.execute(
            EXACT_DISTINCT + " OPTION(skipCache=true)")
        assert len(response.rewrites) == 1
        assert reads == ["events_OFFLINE"]
