"""Tests for source-controlled table-config synchronization (§5.2)."""

import json

import pytest

from repro.cluster.configsync import export_configs, sync_configs
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.cluster.tenant import TenantQuotaManager
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import ThrottledError


@pytest.fixture
def schema():
    return Schema("events", [dimension("c"),
                             metric("v", DataType.LONG)])


@pytest.fixture
def cluster(schema):
    cluster = PinotCluster(num_servers=1)
    cluster.create_table(TableConfig.offline("events", schema))
    return cluster


class TestExport:
    def test_export_writes_one_file_per_table(self, cluster, tmp_path):
        count = export_configs(cluster.leader_controller(), tmp_path)
        assert count == 1
        payload = json.loads((tmp_path / "events_OFFLINE.json").read_text())
        assert payload["logical_name"] == "events"

    def test_export_import_is_stable(self, cluster, tmp_path):
        controller = cluster.leader_controller()
        export_configs(controller, tmp_path)
        report = sync_configs(controller, tmp_path)
        assert not report.changed
        assert report.unchanged == ["events_OFFLINE"]


class TestSync:
    def test_new_file_creates_table(self, cluster, schema, tmp_path):
        controller = cluster.leader_controller()
        new_config = TableConfig.offline("metrics", schema)
        (tmp_path / "metrics_OFFLINE.json").write_text(
            json.dumps(new_config.to_dict())
        )
        export_configs(controller, tmp_path)  # keep existing too
        report = sync_configs(controller, tmp_path)
        assert report.created == ["metrics_OFFLINE"]
        assert "metrics_OFFLINE" in controller.list_tables()

    def test_changed_file_updates_config(self, cluster, tmp_path):
        controller = cluster.leader_controller()
        export_configs(controller, tmp_path)
        payload = json.loads((tmp_path / "events_OFFLINE.json").read_text())
        payload["retention"] = 90
        (tmp_path / "events_OFFLINE.json").write_text(json.dumps(payload))
        report = sync_configs(controller, tmp_path)
        assert report.updated == ["events_OFFLINE"]
        assert controller.table_config("events_OFFLINE").retention == 90

    def test_missing_file_deletes_when_opted_in(self, cluster, tmp_path):
        controller = cluster.leader_controller()
        report = sync_configs(controller, tmp_path)  # empty dir
        assert not report.deleted  # deletion is opt-in
        report = sync_configs(controller, tmp_path, delete_missing=True)
        assert report.deleted == ["events_OFFLINE"]
        assert controller.list_tables() == []

    def test_invalid_file_reported_not_applied(self, cluster, tmp_path):
        controller = cluster.leader_controller()
        (tmp_path / "broken_OFFLINE.json").write_text("{not json")
        report = sync_configs(controller, tmp_path)
        assert "broken_OFFLINE.json" in report.errors
        assert "broken_OFFLINE" not in controller.list_tables()

    @pytest.mark.parametrize("delete_missing", [False, True])
    @pytest.mark.parametrize("edit", [
        # A typo'd key used to be ignored and the table reported unchanged.
        lambda p: p["segment_config"].update(invertd_columns=["c"]),
        # A bad enum name used to raise ValueError out of the sync.
        lambda p: p["schema"]["fields"][0].update(dtype="STR"),
        # An invalid star-tree used to raise SegmentError out of the sync.
        lambda p: p["segment_config"].update(
            star_tree={"max_leaf_records": 0}),
        # A file in the older flat layout, segment options at top level.
        lambda p: p.update(
            inverted_columns=p["segment_config"].pop("inverted_columns")),
    ], ids=["unknown-key", "bad-enum", "bad-star-tree", "flat-layout"])
    def test_malformed_file_reported_and_table_untouched(
            self, cluster, schema, tmp_path, edit, delete_missing):
        controller = cluster.leader_controller()
        segments = cluster.upload_records(
            "events", [{"c": "x", "v": 1}], rows_per_segment=1)
        export_configs(controller, tmp_path)
        before = controller.table_config("events_OFFLINE")
        payload = json.loads((tmp_path / "events_OFFLINE.json").read_text())
        edit(payload)
        (tmp_path / "events_OFFLINE.json").write_text(json.dumps(payload))
        (tmp_path / "metrics_OFFLINE.json").write_text(
            json.dumps(TableConfig.offline("metrics", schema).to_dict()))
        report = sync_configs(controller, tmp_path,
                              delete_missing=delete_missing)
        assert list(report.errors) == ["events_OFFLINE.json"]
        assert report.created == ["metrics_OFFLINE"]
        assert not report.updated and not report.unchanged
        assert not report.deleted
        assert controller.table_config("events_OFFLINE") == before
        assert controller.list_segments("events_OFFLINE") == segments

    @pytest.mark.parametrize("delete_missing", [False, True])
    def test_config_the_cluster_refuses_is_reported(self, schema, tmp_path,
                                                    delete_missing):
        """A well-formed realtime file naming a missing topic used to
        raise IngestionError out of the sync, and the files sorted after
        it were never applied."""
        cluster = PinotCluster(num_servers=1)
        controller = cluster.leader_controller()
        (tmp_path / "events_REALTIME.json").write_text(json.dumps(
            TableConfig.realtime("events", schema,
                                 StreamConfig("missing-topic")).to_dict()))
        (tmp_path / "metrics_OFFLINE.json").write_text(
            json.dumps(TableConfig.offline("metrics", schema).to_dict()))
        report = sync_configs(controller, tmp_path,
                              delete_missing=delete_missing)
        assert list(report.errors) == ["events_REALTIME.json"]
        assert "missing-topic" in report.errors["events_REALTIME.json"]
        assert report.created == ["metrics_OFFLINE"]
        assert not report.deleted
        assert controller.list_tables() == ["metrics_OFFLINE"]

    def test_mismatched_file_name_rejected(self, cluster, schema,
                                           tmp_path):
        config = TableConfig.offline("other", schema)
        (tmp_path / "wrongname_OFFLINE.json").write_text(
            json.dumps(config.to_dict())
        )
        report = sync_configs(cluster.leader_controller(), tmp_path)
        assert "wrongname_OFFLINE.json" in report.errors

    def test_updated_config_applies_to_future_segments(self, cluster,
                                                       tmp_path):
        controller = cluster.leader_controller()
        export_configs(controller, tmp_path)
        payload = json.loads((tmp_path / "events_OFFLINE.json").read_text())
        payload["segment_config"]["inverted_columns"] = ["c"]
        (tmp_path / "events_OFFLINE.json").write_text(json.dumps(payload))
        sync_configs(controller, tmp_path)

        cluster.upload_records("events", [{"c": "x", "v": 1}] * 10)
        [segment_name] = controller.list_segments("events_OFFLINE")
        segment = cluster.object_store.get("events_OFFLINE", segment_name)
        assert segment.column("c").inverted is not None


def rewrite(tmp_path, table, **changes):
    file = tmp_path / f"{table}.json"
    payload = json.loads(file.read_text())
    payload.update(changes)
    file.write_text(json.dumps(payload))


class TestSyncReachesTheNextQuery:
    """Brokers hold the parsed config between queries; a synced change
    must reach the very next one."""

    def test_tenant_change(self, schema, tmp_path):
        quotas = TenantQuotaManager(default_capacity=1e12,
                                    default_refill_rate=1e12)
        quotas.configure("starved", capacity=0.5, refill_rate=1e-9)
        cluster = PinotCluster(num_servers=1, quotas=quotas)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", [{"c": "x", "v": 1}] * 10)
        controller = cluster.leader_controller()
        assert cluster.execute("SELECT count(*) FROM events").rows[0][0] == 10

        export_configs(controller, tmp_path)
        rewrite(tmp_path, "events_OFFLINE", tenant="starved")
        assert sync_configs(controller, tmp_path).updated == [
            "events_OFFLINE"]
        with pytest.raises(ThrottledError, match="starved"):
            cluster.execute("SELECT sum(v) FROM events")

        rewrite(tmp_path, "events_OFFLINE", tenant="DefaultTenant")
        sync_configs(controller, tmp_path)
        assert cluster.execute("SELECT sum(v) FROM events").rows[0][0] == 10

    def test_hybrid_time_boundary_change(self, tmp_path):
        """The offline leg's granularity places the hybrid split."""
        schema = Schema("events", [dimension("c"),
                                   metric("v", DataType.LONG),
                                   time_column("day", DataType.INT)])
        cluster = PinotCluster(num_servers=2)
        cluster.create_kafka_topic("events-topic", 1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.create_table(TableConfig.realtime(
            "events", schema, StreamConfig("events-topic")))
        days = range(17000, 17006)
        cluster.upload_records(
            "events", [{"c": "offline", "v": 1, "day": day} for day in days])
        cluster.ingest("events-topic",
                       [{"c": "realtime", "v": 1, "day": day} for day in days])
        cluster.drain_realtime()
        controller = cluster.leader_controller()

        def realtime_rows(text):
            return cluster.execute(
                f"SELECT count(*) FROM events WHERE {text}").rows[0][0]

        # Boundary 17005 - 1: the realtime leg serves day 17005 only.
        assert realtime_rows("c = 'realtime'") == 1
        export_configs(controller, tmp_path)
        rewrite(tmp_path, "events_OFFLINE",
                retention_granularity={"unit": "DAYS", "size": 3})
        sync_configs(controller, tmp_path)
        # Boundary 17005 - 3: days 17003..17005 now come from realtime.
        assert realtime_rows("c = 'realtime' AND v = 1") == 3
