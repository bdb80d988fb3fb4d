"""End-to-end test of §5.2's automatic index addition."""

import pytest

from repro.cluster.autoindex import AutoIndexAnalyzer
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric


@pytest.fixture
def cluster():
    schema = Schema("events", [
        dimension("country"), dimension("browser"),
        metric("views", DataType.LONG),
    ])
    cluster = PinotCluster(num_servers=2, num_minions=1)
    cluster.create_table(TableConfig.offline("events", schema))
    records = [
        {"country": f"c{i % 40}", "browser": f"b{i % 5}", "views": 1}
        for i in range(20_000)
    ]
    cluster.upload_records("events", records, rows_per_segment=10_000)
    return cluster


def hammer(cluster, n=30):
    for i in range(n):
        cluster.execute(
            f"SELECT sum(views) FROM events WHERE country = 'c{i % 40}'"
        )


class TestAutoIndex:
    def test_query_log_recorded(self, cluster):
        hammer(cluster, n=5)
        log = cluster.brokers[0].query_log
        assert len(log) == 5
        assert log[0].filter_columns == {"country"}
        assert log[0].entries_scanned_in_filter > 0

    def test_recommendation_from_hot_column(self, cluster):
        hammer(cluster)
        analyzer = AutoIndexAnalyzer(cluster.leader_controller(),
                                     min_queries=20,
                                     min_entries_scanned=10_000)
        recs = analyzer.recommend(cluster.brokers)
        assert [r.column for r in recs] == ["country"]
        assert recs[0].queries_filtering == 30

    def test_cold_column_not_recommended(self, cluster):
        hammer(cluster, n=25)
        cluster.execute("SELECT sum(views) FROM events "
                        "WHERE browser = 'b1'")
        analyzer = AutoIndexAnalyzer(cluster.leader_controller(),
                                     min_queries=20,
                                     min_entries_scanned=10_000)
        recs = analyzer.recommend(cluster.brokers)
        assert all(r.column != "browser" for r in recs)

    def test_apply_backfills_and_speeds_up(self, cluster):
        hammer(cluster)
        store = cluster.object_store
        segment_name = store.list_segments("events_OFFLINE")[0]
        assert store.get("events_OFFLINE",
                         segment_name).column("country").inverted is None

        analyzer = AutoIndexAnalyzer(cluster.leader_controller(),
                                     min_queries=20,
                                     min_entries_scanned=10_000)
        task_ids = analyzer.apply(cluster.brokers)
        assert len(task_ids) == 1
        cluster.run_minions()

        # Segments now carry the index...
        reloaded = store.get("events_OFFLINE", segment_name)
        assert reloaded.column("country").inverted is not None
        # ...the table config indexes the column for future segments...
        config = cluster.leader_controller().table_config("events_OFFLINE")
        assert "country" in config.segment_config.inverted_columns
        # ...queries still answer correctly and scan fewer entries.
        before = cluster.brokers[0].query_log[-1]
        response = cluster.execute(
            "SELECT sum(views) FROM events WHERE country = 'c1'"
        )
        assert response.rows[0][0] == 500.0
        after = cluster.brokers[0].query_log[-1]
        assert after.entries_scanned_in_filter < \
            before.entries_scanned_in_filter

    def test_apply_leaves_a_config_already_read_unchanged(self, cluster):
        """Every reader shares the parsed config: ``apply`` must publish
        a new one, not edit the one it read."""
        hammer(cluster)
        controller = cluster.leader_controller()
        before = controller.table_config("events_OFFLINE")
        analyzer = AutoIndexAnalyzer(controller, min_queries=20,
                                     min_entries_scanned=10_000)
        assert len(analyzer.apply(cluster.brokers)) == 1
        assert before.segment_config.inverted_columns == ()
        after = controller.table_config("events_OFFLINE")
        assert after.segment_config.inverted_columns == ("country",)

    def test_apply_is_idempotent(self, cluster):
        hammer(cluster)
        analyzer = AutoIndexAnalyzer(cluster.leader_controller(),
                                     min_queries=20,
                                     min_entries_scanned=10_000)
        assert len(analyzer.apply(cluster.brokers)) == 1
        cluster.run_minions()
        # Second pass: the column is already configured, nothing to do.
        assert analyzer.apply(cluster.brokers) == []
