"""Edge cases of the PinotCluster facade."""

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric
from repro.errors import ClusterError


@pytest.fixture
def schema():
    return Schema("events", [dimension("c"),
                             metric("v", DataType.LONG)])


class TestConstruction:
    def test_requires_components(self):
        with pytest.raises(ClusterError):
            PinotCluster(num_servers=0)
        with pytest.raises(ClusterError):
            PinotCluster(num_brokers=0)

    def test_unknown_server_lookup(self):
        cluster = PinotCluster(num_servers=1)
        with pytest.raises(ClusterError):
            cluster.server("server-99")


class TestLeaderResolution:
    def test_all_controllers_dead_raises(self, schema):
        cluster = PinotCluster(num_servers=1, num_controllers=1)
        cluster.kill_controller("controller-0")
        with pytest.raises(ClusterError, match="no live controller"):
            cluster.leader_controller()

    def test_leader_stable_across_calls(self):
        cluster = PinotCluster(num_servers=1)
        assert (cluster.leader_controller().instance_id
                == cluster.leader_controller().instance_id)


class TestUploadPaths:
    def test_upload_by_logical_and_physical_name(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", [{"c": "a", "v": 1}])
        cluster.upload_records("events_OFFLINE", [{"c": "b", "v": 2}])
        assert cluster.execute(
            "SELECT count(*) FROM events"
        ).rows[0][0] == 2

    def test_build_segments_without_upload(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        segments = cluster.build_segments(
            "events_OFFLINE", [{"c": "a", "v": 1}] * 250,
            rows_per_segment=100,
        )
        assert [s.num_docs for s in segments] == [100, 100, 50]
        # Nothing was uploaded.
        assert cluster.execute(
            "SELECT count(*) FROM events"
        ).rows[0][0] == 0

    def test_segment_names_unique_across_uploads(self, schema):
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        first = cluster.upload_records("events", [{"c": "a", "v": 1}])
        second = cluster.upload_records("events", [{"c": "a", "v": 1}])
        assert set(first).isdisjoint(second)


class TestRealtimeGuards:
    def test_realtime_table_requires_existing_topic(self, schema):
        from repro.cluster.table import StreamConfig
        from repro.errors import IngestionError

        cluster = PinotCluster(num_servers=1)
        with pytest.raises(IngestionError):
            cluster.create_table(TableConfig.realtime(
                "events", schema, StreamConfig("missing-topic"),
            ))
        # A failed create leaves nothing behind.
        assert cluster.leader_controller().list_tables() == []

    def test_duplicate_topic_rejected(self):
        cluster = PinotCluster(num_servers=1)
        cluster.create_kafka_topic("t", 1)
        from repro.errors import IngestionError

        with pytest.raises(IngestionError):
            cluster.create_kafka_topic("t", 1)


class TestStarTreeTable:
    """A star-tree table created through the facade: the config must
    survive the property store (it used to lose ``star_tree`` and
    ``routing_options``, so no cluster table ever built a tree), and a
    query the tree cannot plan must come back as a flagged partial."""

    @pytest.fixture(scope="class")
    def records(self):
        import random

        rng = random.Random(5)
        return [{"a": rng.choice("uvw"), "n": rng.randint(0, 6),
                 "code": str(rng.randint(0, 9)), "m": rng.randint(0, 50)}
                for __ in range(1500)]

    @pytest.fixture(scope="class")
    def cluster(self, records):
        from repro.segment.builder import SegmentConfig
        from repro.startree.builder import StarTreeConfig

        schema = Schema("t", [
            dimension("a"), dimension("n", DataType.LONG),
            dimension("code"), metric("m", DataType.LONG),
        ])
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(TableConfig.offline(
            "t", schema, routing_strategy="large_cluster",
            routing_options={"target_servers": 2, "keep_tables": 5,
                             "generate_tables": 40},
            segment_config=SegmentConfig(star_tree=StarTreeConfig(
                dimensions=("a", "n", "code"), max_leaf_records=10)),
        ))
        cluster.upload_records("t", records, rows_per_segment=500)
        return cluster

    def test_explain_shows_star_tree_plans(self, cluster):
        plans = cluster.explain("SELECT sum(m) FROM t WHERE a = 'u'")
        described = [plan for per_server in plans.values()
                     for plan in per_server.values()]
        assert len(described) == 3
        assert all(plan.startswith("STAR_TREE") for plan in described)

    def test_broker_strategy_carries_routing_options(self, cluster):
        strategy = cluster.brokers[0]._routed("t_OFFLINE").strategy
        assert (strategy.target_servers, strategy.keep_tables,
                strategy.generate_tables) == (2, 5, 40)

    def test_numeric_literal_on_string_dimension(self, cluster, records):
        response = cluster.execute("SELECT count(*) FROM t WHERE code = 5")
        assert response.rows == [
            (sum(1 for r in records if r["code"] == "5"),)]
        assert response.stats.startree_used
        assert not response.partial

    def test_string_literal_on_numeric_dimension_is_flagged(self, cluster):
        # Used to escape as a bare TypeError from star-tree planning,
        # past every ``except PinotError`` on the way to the client.
        response = cluster.execute("SELECT count(*) FROM t WHERE n = '3'")
        assert response.partial
        assert all("cannot compare string literal" in error
                   for error in response.exceptions)
