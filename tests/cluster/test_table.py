"""Tests for table configuration."""

import pytest

from repro.cluster.table import (
    PartitionConfig,
    StreamConfig,
    TableConfig,
    TableType,
)
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import ClusterError
from repro.segment.builder import SegmentConfig


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("memberId", DataType.LONG), dimension("country"),
        metric("views", DataType.LONG), time_column("day", DataType.INT),
    ])


class TestValidation:
    def test_physical_name_carries_type(self, schema):
        config = TableConfig.offline("events", schema)
        assert config.name == "events_OFFLINE"
        realtime = TableConfig.realtime("events", schema,
                                        StreamConfig("events-topic"))
        assert realtime.name == "events_REALTIME"

    def test_realtime_requires_stream(self, schema):
        with pytest.raises(ClusterError, match="stream"):
            TableConfig(logical_name="events",
                        table_type=TableType.REALTIME, schema=schema)

    def test_offline_rejects_stream(self, schema):
        with pytest.raises(ClusterError):
            TableConfig.offline("events", schema,
                                stream=StreamConfig("t"))

    def test_replication_positive(self, schema):
        with pytest.raises(ClusterError):
            TableConfig.offline("events", schema, replication=0)

    def test_partition_aware_requires_partition(self, schema):
        with pytest.raises(ClusterError):
            TableConfig.offline("events", schema,
                                routing_strategy="partition_aware")

    def test_partition_config_propagates_to_segments(self, schema):
        config = TableConfig.offline(
            "events", schema,
            partition=PartitionConfig("memberId", 8),
        )
        assert config.segment_config.partition_column == "memberId"
        assert config.segment_config.num_partitions == 8

    def test_partition_does_not_write_into_a_shared_segment_config(
            self, schema):
        shared = SegmentConfig(sorted_column="country")
        partitioned = TableConfig.offline(
            "events", schema, segment_config=shared,
            partition=PartitionConfig("memberId", 4))
        plain = TableConfig.offline("other", schema, segment_config=shared)
        assert shared.partition_column is None
        assert shared.num_partitions is None
        assert partitioned.segment_config.partition_column == "memberId"
        assert plain.segment_config.partition_column is None

    def test_time_column_exposed(self, schema):
        assert TableConfig.offline("events", schema).time_column == "day"


class TestSerialization:
    def test_roundtrip_offline(self, schema):
        config = TableConfig.offline(
            "events", schema, replication=2, retention=30,
            quota_bytes=10_000_000, tenant="analytics",
            segment_config=SegmentConfig(sorted_column="memberId",
                                         inverted_columns=("country",)),
            partition=PartitionConfig("memberId", 4),
            routing_strategy="partition_aware",
        )
        clone = TableConfig.from_dict(config.to_dict())
        assert clone.name == config.name
        assert clone.replication == 2
        assert clone.retention == 30
        assert clone.quota_bytes == 10_000_000
        assert clone.tenant == "analytics"
        assert clone.segment_config.sorted_column == "memberId"
        assert clone.segment_config.inverted_columns == ("country",)
        assert clone.partition.num_partitions == 4
        assert clone.routing_strategy == "partition_aware"

    def test_roundtrip_realtime(self, schema):
        config = TableConfig.realtime(
            "events", schema,
            StreamConfig("events-topic", flush_threshold_rows=123,
                         flush_threshold_ticks=9, records_per_poll=45),
        )
        clone = TableConfig.from_dict(config.to_dict())
        assert clone.stream.topic == "events-topic"
        assert clone.stream.flush_threshold_rows == 123
        assert clone.stream.flush_threshold_ticks == 9
        assert clone.stream.records_per_poll == 45
        assert clone.schema == schema


    def test_roundtrip_keeps_every_field(self, schema):
        """``from_dict(to_dict(c)) == c`` with no field left at its
        default, also through the JSON the property store may hold —
        ``star_tree`` and ``routing_options`` used to be dropped."""
        import json

        from repro.common.timeutils import TimeGranularity, TimeUnit
        from repro.startree.builder import StarTreeConfig
        from repro.upsert import UpsertConfig

        offline = TableConfig.offline(
            "events", schema, replication=2, retention=30,
            retention_granularity=TimeGranularity(TimeUnit.HOURS, 6),
            quota_bytes=10_000_000, tier_to_remote_after=7,
            tenant="analytics",
            segment_config=SegmentConfig(
                sorted_column="memberId", inverted_columns=("country",),
                bloom_columns=("memberId",), timestamp_index=(1, 7),
                star_tree=StarTreeConfig(dimensions=("country", "day"),
                                         max_leaf_records=7,
                                         metrics=("views",)),
            ),
            partition=PartitionConfig("memberId", 4),
            routing_strategy="large_cluster",
            routing_options={"target_servers": 2, "keep_tables": 5,
                             "generate_tables": 40},
        )
        realtime = TableConfig.realtime(
            "events", schema,
            StreamConfig("events-topic", flush_threshold_rows=123,
                         flush_threshold_ticks=9, records_per_poll=45),
            upsert=UpsertConfig(mode="upsert", key_columns=("memberId",),
                                comparison_column="day"),
            segment_config=SegmentConfig(inverted_columns=("country",)),
        )
        for config in (offline, realtime):
            payload = config.to_dict()
            assert TableConfig.from_dict(payload) == config
            assert TableConfig.from_dict(
                json.loads(json.dumps(payload))) == config

    def test_star_tree_defaults_survive(self, schema):
        """None dimensions / metrics mean "the builder chooses" and
        must not come back as empty tuples."""
        from repro.startree.builder import StarTreeConfig

        config = TableConfig.offline(
            "events", schema,
            segment_config=SegmentConfig(star_tree=StarTreeConfig()))
        clone = TableConfig.from_dict(config.to_dict())
        assert clone.segment_config.star_tree == StarTreeConfig()

    def test_payload_without_the_newer_keys_loads(self, schema):
        payload = TableConfig.offline("events", schema).to_dict()
        payload["segment_config"].pop("star_tree")
        payload.pop("routing_options")
        clone = TableConfig.from_dict(payload)
        assert clone.segment_config.star_tree is None
        assert clone.routing_options == {}


class TestTimestampIndex:
    def test_roundtrip_timestamp_index(self, schema):
        config = TableConfig.offline(
            "events", schema,
            segment_config=SegmentConfig(timestamp_index=(1, 5, 30)),
        )
        clone = TableConfig.from_dict(config.to_dict())
        assert clone.segment_config.timestamp_index == (1, 5, 30)

    def test_default_has_no_timestamp_index(self, schema):
        config = TableConfig.offline("events", schema)
        clone = TableConfig.from_dict(config.to_dict())
        assert clone.segment_config.timestamp_index == ()

    def test_upsert_rejects_timestamp_index(self, schema):
        from repro.upsert import UpsertConfig

        with pytest.raises(ClusterError, match="timestamp index"):
            TableConfig.realtime(
                "events", schema, StreamConfig("events-topic"),
                upsert=UpsertConfig(mode="upsert",
                                    key_columns=("memberId",)),
                segment_config=SegmentConfig(timestamp_index=(1,)),
            )
