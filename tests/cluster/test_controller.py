"""Tests for the controller: leadership, uploads, quota, retention."""

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import ClusterError, NotLeaderError, QuotaExceededError
from repro.segment.builder import SegmentBuilder


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("country"), metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])


@pytest.fixture
def cluster(schema):
    cluster = PinotCluster(num_servers=3, num_brokers=1)
    cluster.create_table(TableConfig.offline("events", schema,
                                             replication=2))
    return cluster


def make_segment(schema, name, days, rows_per_day=10):
    builder = SegmentBuilder(name, "events_OFFLINE", schema)
    for day in days:
        for i in range(rows_per_day):
            builder.add({"country": "us", "views": i, "day": day})
    return builder.build()


class TestLeadership:
    def test_single_leader(self):
        cluster = PinotCluster(num_servers=1, num_controllers=3)
        leaders = [c for c in cluster.controllers if c.is_leader]
        assert len(leaders) == 1

    def test_non_leader_rejects_admin_ops(self, cluster, schema):
        follower = next(c for c in cluster.controllers if not c.is_leader)
        with pytest.raises(NotLeaderError):
            follower.create_table(TableConfig.offline("x", schema))

    def test_failover_elects_new_leader(self, cluster):
        old = cluster.leader_controller()
        cluster.kill_controller(old.instance_id)
        new = cluster.leader_controller()
        assert new.instance_id != old.instance_id
        assert new.is_leader


class TestTables:
    def test_create_duplicate_rejected(self, cluster, schema):
        with pytest.raises(ClusterError, match="already exists"):
            cluster.create_table(TableConfig.offline("events", schema))

    def test_list_tables(self, cluster):
        assert cluster.leader_controller().list_tables() == [
            "events_OFFLINE"
        ]

    def test_delete_table(self, cluster, schema):
        controller = cluster.leader_controller()
        segment = make_segment(schema, "s1", [17000])
        controller.upload_segment("events_OFFLINE", segment)
        controller.delete_table("events_OFFLINE")
        assert controller.list_tables() == []
        assert cluster.object_store.list_segments("events_OFFLINE") == []


class TestUpload:
    def test_upload_assigns_replicas(self, cluster, schema):
        controller = cluster.leader_controller()
        segment = make_segment(schema, "s1", [17000])
        controller.upload_segment("events_OFFLINE", segment)
        view = cluster.helix.external_view("events_OFFLINE")
        assert len(view["s1"]) == 2
        assert all(state == "ONLINE" for state in view["s1"].values())

    def test_upload_balances_load(self, cluster, schema):
        controller = cluster.leader_controller()
        for i in range(6):
            controller.upload_segment(
                "events_OFFLINE", make_segment(schema, f"s{i}", [17000])
            )
        counts = {s.instance_id: len(s.hosted_segments("events_OFFLINE"))
                  for s in cluster.servers}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_empty_segment_rejected(self, cluster, schema):
        controller = cluster.leader_controller()
        segment = make_segment(schema, "s1", [17000])
        segment.metadata.num_docs = 0
        with pytest.raises(ClusterError, match="empty"):
            controller.upload_segment("events_OFFLINE", segment)

    def test_quota_enforced(self, schema):
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(
            TableConfig.offline("events", schema, quota_bytes=100)
        )
        controller = cluster.leader_controller()
        segment = make_segment(schema, "big", [17000], rows_per_day=500)
        with pytest.raises(QuotaExceededError):
            controller.upload_segment("events_OFFLINE", segment)

    def test_insufficient_servers_rejected(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema,
                                                 replication=3))
        controller = cluster.leader_controller()
        with pytest.raises(ClusterError, match="servers"):
            controller.upload_segment(
                "events_OFFLINE", make_segment(schema, "s1", [17000])
            )

    def test_replace_segment(self, cluster, schema):
        controller = cluster.leader_controller()
        controller.upload_segment("events_OFFLINE",
                                  make_segment(schema, "s1", [17000]))
        before = cluster.execute("SELECT count(*) FROM events").rows[0][0]
        replacement = make_segment(schema, "s1", [17000], rows_per_day=3)
        controller.replace_segment("events_OFFLINE", replacement)
        after = cluster.execute("SELECT count(*) FROM events").rows[0][0]
        assert before == 10
        assert after == 3

    def test_replace_missing_segment_rejected(self, cluster, schema):
        controller = cluster.leader_controller()
        with pytest.raises(ClusterError):
            controller.replace_segment(
                "events_OFFLINE", make_segment(schema, "ghost", [17000])
            )


class TestRetention:
    def test_old_segments_collected(self, schema):
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(
            TableConfig.offline("events", schema, retention=30)
        )
        controller = cluster.leader_controller()
        controller.upload_segment("events_OFFLINE",
                                  make_segment(schema, "old", [17000]))
        controller.upload_segment("events_OFFLINE",
                                  make_segment(schema, "new", [17050]))
        deleted = cluster.run_retention(now=17060)
        assert deleted == ["old"]
        assert controller.list_segments("events_OFFLINE") == ["new"]
        response = cluster.execute("SELECT count(*) FROM events")
        assert response.rows[0][0] == 10

    def test_no_retention_keeps_everything(self, cluster, schema):
        controller = cluster.leader_controller()
        controller.upload_segment("events_OFFLINE",
                                  make_segment(schema, "ancient", [1]))
        assert cluster.run_retention(now=100_000) == []


class TestSchemaEvolution:
    def test_add_column_visible_without_reload(self, cluster, schema):
        controller = cluster.leader_controller()
        controller.upload_segment("events_OFFLINE",
                                  make_segment(schema, "s1", [17000]))
        controller.add_column("events_OFFLINE",
                              dimension("platform"))
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE platform = 'null'"
        )
        assert response.rows[0][0] == 10
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE platform = 'ios'"
        )
        assert response.rows[0][0] == 0

    def test_add_column_leaves_a_config_already_read_unchanged(
            self, cluster, schema):
        """Every reader shares the parsed config: ``add_column`` must
        publish a new one, not edit the one it read."""
        controller = cluster.leader_controller()
        controller.upload_segment("events_OFFLINE",
                                  make_segment(schema, "s1", [17000]))
        before = controller.table_config("events_OFFLINE")
        controller.add_column("events_OFFLINE", dimension("platform"))
        assert "platform" not in before.schema
        assert "platform" in controller.table_config("events_OFFLINE").schema
        response = cluster.execute(
            "SELECT count(*) FROM events WHERE platform = 'null'")
        assert response.rows[0][0] == 10
