"""Tests for broker-side time pruning, explain, and response counters."""

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig, table_exists
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import ClusterError
from repro.segment.builder import SegmentBuilder, SegmentConfig


@pytest.fixture
def cluster():
    schema = Schema("events", [
        dimension("country"), metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])
    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline("events", schema,
                                             replication=1))
    # One segment per day: days 17000..17005, half us / half ca.
    for day in range(17000, 17006):
        records = [
            {"country": "us" if i % 2 else "ca", "views": 1, "day": day}
            for i in range(100)
        ]
        cluster.upload_records("events", records, rows_per_segment=100)
    return cluster


class TestBrokerTimePruning:
    def test_point_day_query_prunes_other_segments(self, cluster):
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE day = 17002"
        )
        assert response.rows[0][0] == 100
        assert response.num_segments_pruned_by_broker == 5
        assert response.stats.num_segments_queried == 1

    def test_range_query_prunes_partially(self, cluster):
        response = cluster.execute(
            "SELECT count(*) FROM events "
            "WHERE day BETWEEN 17001 AND 17003"
        )
        assert response.rows[0][0] == 300
        assert response.num_segments_pruned_by_broker == 3

    def test_unbounded_query_prunes_nothing(self, cluster):
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE country = 'us'"
        )
        assert response.rows[0][0] == 300
        assert response.num_segments_pruned_by_broker == 0

    def test_pruning_can_reduce_server_fanout(self, cluster):
        full = cluster.execute("SELECT count(*) FROM events")
        narrow = cluster.execute(
            "SELECT count(*) FROM events WHERE day = 17000"
        )
        assert narrow.num_servers_queried <= full.num_servers_queried
        assert narrow.num_servers_queried == 1

    def test_or_predicate_not_pruned(self, cluster):
        """An OR gives no usable bound; results must stay correct."""
        response = cluster.execute(
            "SELECT count(*) FROM events "
            "WHERE day = 17000 OR country = 'us'"
        )
        # 100 rows on day 17000 plus 250 'us' rows on the other days.
        assert response.rows[0][0] == 350
        assert response.num_segments_pruned_by_broker == 0


class TestFloatTimeBounds:
    """A float literal between two days must not be rounded into the
    next day: ``day > 17004.5`` matches day 17005."""

    def test_float_bound_keeps_the_matching_segment(self, cluster):
        above = cluster.execute(
            "SELECT count(*) FROM events WHERE day > 17004.5")
        assert above.rows[0][0] == 100
        assert above.num_segments_pruned_by_broker == 5
        below = cluster.execute(
            "SELECT count(*) FROM events WHERE day < 17000.5")
        assert below.rows[0][0] == 100
        assert below.num_segments_pruned_by_broker == 5

    def test_float_bound_inside_both_segments_prunes_none(self):
        schema = Schema("events", [
            dimension("country"), metric("views", DataType.LONG),
            time_column("day", DataType.INT),
        ])
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(TableConfig.offline("events", schema))
        records = [{"country": "us", "views": 1, "day": 17000 + i % 4}
                   for i in range(200)]
        cluster.upload_records("events", records, rows_per_segment=100)
        for where, expected in (("day > 17002.5", 50),
                                ("day < 17000.5", 50)):
            response = cluster.execute(
                f"SELECT count(*) FROM events WHERE {where}")
            assert response.rows[0][0] == expected, where
            assert response.num_segments_pruned_by_broker == 0

    def test_in_list_on_the_time_column_prunes(self, cluster):
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE day IN (17001, 17004)")
        assert response.rows[0][0] == 200
        assert response.num_segments_pruned_by_broker == 4


class TestBloomLiteralCoercion:
    def test_numeric_literal_on_a_string_bloom_column(self):
        """``code = 5`` matches the string ``'5'`` in the engine, so the
        bloom (which hashes 5 and '5' apart) must be probed for both."""
        schema = Schema("events", [
            dimension("code"), metric("views", DataType.LONG),
            time_column("day", DataType.INT),
        ])
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline(
            "events", schema,
            segment_config=SegmentConfig(bloom_columns=("code",)),
        ))
        cluster.upload_records(
            "events",
            [{"code": str(i % 7), "views": 1, "day": 17000}
             for i in range(70)])
        for where in ("code = 5", "code IN (5, 9)", "code = '5'"):
            response = cluster.execute(
                f"SELECT count(*) FROM events WHERE {where}")
            assert response.rows[0][0] == 10, where
        absent = cluster.execute(
            "SELECT count(*) FROM events WHERE code = 9")
        assert absent.rows[0][0] == 0
        assert absent.num_segments_pruned_by_broker == 1


class TestBrokerStateFollowsChanges:
    """The broker holds parsed table configs and segment summaries
    between queries; every change must reach the very next query."""

    def test_replaced_segment_is_pruned_by_its_new_range(self, cluster):
        warm = cluster.execute(
            "SELECT count(*) FROM events WHERE day = 17002")
        assert warm.num_segments_pruned_by_broker == 5
        controller = cluster.leader_controller()
        [name] = [
            segment for segment in controller.list_segments("events_OFFLINE")
            if cluster.helix.get_property(
                f"segments/events_OFFLINE/{segment}")["min_time"] == 17002
        ]
        config = controller.table_config("events_OFFLINE")
        builder = SegmentBuilder(name, "events_OFFLINE", config.schema,
                                 config.segment_config)
        builder.add_all([{"country": "us", "views": 1, "day": 17010}] * 40)
        controller.replace_segment("events_OFFLINE", builder.build())

        moved = cluster.execute(
            "SELECT count(*) FROM events WHERE day = 17010")
        assert moved.rows[0][0] == 40
        assert moved.num_segments_pruned_by_broker == 5
        gone = cluster.execute(
            "SELECT count(*) FROM events WHERE day BETWEEN 17002 AND 17002")
        assert gone.rows[0][0] == 0
        assert gone.num_segments_pruned_by_broker == 6

    def test_dropped_and_recreated_table(self, cluster):
        helix = cluster.helix
        controller = cluster.leader_controller()
        config = controller.table_config("events_OFFLINE")
        assert cluster.execute("SELECT count(*) FROM events").rows[0][0] == 600

        controller.delete_table("events_OFFLINE")
        assert not table_exists(helix, "events_OFFLINE")
        with pytest.raises(ClusterError, match="no such table"):
            cluster.execute("SELECT count(*) FROM events WHERE day = 17000")

        controller.create_table(config)
        assert table_exists(helix, "events_OFFLINE")
        cluster.upload_records(
            "events", [{"country": "us", "views": 1, "day": 17020}] * 7)
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE day >= 17000")
        assert response.rows[0][0] == 7


class TestResponseCounters:
    def test_servers_queried_and_responded(self, cluster):
        response = cluster.execute("SELECT count(*) FROM events")
        assert response.num_servers_queried == 3
        assert response.num_servers_responded == 3

    def test_failed_server_counted(self, cluster):
        cluster.servers[0].faults.fail_next = 1
        response = cluster.execute("SELECT count(*) FROM events")
        assert response.num_servers_queried == 3
        assert response.num_servers_responded == 2
        assert response.is_partial


class TestExplain:
    def test_explain_covers_all_segments(self, cluster):
        plans = cluster.explain(
            "SELECT count(*) FROM events WHERE country = 'us'"
        )
        segments = [s for server in plans.values() for s in server]
        assert len(segments) == 6
        assert all("Scan(country" in description
                   for server in plans.values()
                   for description in server.values())

    def test_explain_shows_metadata_plans(self, cluster):
        plans = cluster.explain("SELECT count(*) FROM events")
        descriptions = [d for server in plans.values()
                        for d in server.values()]
        assert all(d.startswith("METADATA") for d in descriptions)

    def test_explain_names_the_prune_reason(self, cluster):
        plans = cluster.explain(
            "SELECT count(*) FROM events WHERE day = 17002")
        descriptions = [d for server in plans.values()
                        for d in server.values()]
        assert descriptions.count("PRUNED (zone_map)") == 5
        assert sum(d.startswith("SCAN") for d in descriptions) == 1

    def test_explain_does_not_execute(self, cluster):
        before = sum(s.queries_executed for s in cluster.servers)
        cluster.explain("SELECT count(*) FROM events")
        after = sum(s.queries_executed for s in cluster.servers)
        assert after == before
