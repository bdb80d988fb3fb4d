"""The stored form of records (``repro.common.records``).

Property: ``from_plain(C, json.loads(json.dumps(to_plain(x)))) == x`` for
every record type that is stored — table configs (offline and realtime,
with every nested record), schemas, the metadata of real built segments,
sim schedules and violations. Explicit cases pin the rules a hand-edited
or older file meets, and the byte-for-byte payloads of ``Schema`` and
``Schedule.to_json()``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.table import (
    PartitionConfig,
    StreamConfig,
    TableConfig,
    TableType,
)
from repro.common.records import from_plain, to_plain
from repro.common.schema import Schema
from repro.common.timeutils import TimeGranularity, TimeUnit
from repro.common.types import (
    DataType,
    FieldRole,
    FieldSpec,
    dimension,
    metric,
    time_column,
)
from repro.errors import PinotError
from repro.segment.builder import SegmentBuilder, SegmentConfig, StarTreeConfig
from repro.segment.metadata import SegmentMetadata
from repro.sim.invariants import Violation
from repro.sim.schedule import Op, Schedule
from repro.upsert.config import UpsertConfig


def round_trip(cls, value):
    return from_plain(cls, json.loads(json.dumps(to_plain(value))))


# -- strategies ---------------------------------------------------------------

NAMES = ["a", "b", "c", "d", "e", "f"]
DEFAULTS = {
    DataType.INT: st.integers(-2**31, 2**31 - 1),
    DataType.LONG: st.integers(-2**63, 2**63 - 1),
    DataType.FLOAT: st.floats(allow_nan=False, allow_infinity=False,
                              width=32),
    DataType.DOUBLE: st.floats(allow_nan=False, allow_infinity=False),
    DataType.BOOLEAN: st.booleans(),
    DataType.STRING: st.text(max_size=8),
}


@st.composite
def field_specs(draw, name):
    role = draw(st.sampled_from(FieldRole))
    dtypes = {
        FieldRole.DIMENSION: list(DataType),
        FieldRole.METRIC: [t for t in DataType if t.is_numeric],
        FieldRole.TIME: [DataType.INT, DataType.LONG],
    }[role]
    dtype = draw(st.sampled_from(dtypes))
    multi_value = role is FieldRole.DIMENSION and draw(st.booleans())
    default = draw(st.none() | DEFAULTS[dtype])
    return FieldSpec(name, dtype, role, multi_value, default)


@st.composite
def schemas(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5,
                          unique=True))
    specs = [draw(field_specs(name)) for name in names]
    times = [spec for spec in specs if spec.is_time]
    specs = [spec for spec in specs if not spec.is_time] + times[:1]
    return Schema(draw(st.sampled_from(["events", "wvmp"])), specs)


def column_tuples(names):
    return st.lists(st.sampled_from(names), max_size=3, unique=True).map(tuple)


@st.composite
def table_configs(draw):
    schema = draw(schemas())
    names = list(schema.column_names)
    single = [spec.name for spec in schema if not spec.multi_value]
    realtime = draw(st.booleans())
    upsert = None
    if realtime and len(single) >= 2 and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(single[1:]), min_size=1,
                             unique=True))
        upsert = draw(st.sampled_from([
            UpsertConfig("upsert", tuple(keys), single[0]),
            UpsertConfig("upsert", tuple(keys)),
            UpsertConfig("dedup", tuple(keys)),
        ]))
    star_tree = None
    if upsert is None:
        star_tree = draw(st.none() | st.builds(
            StarTreeConfig,
            dimensions=st.none() | column_tuples(names),
            max_leaf_records=st.integers(1, 500),
            metrics=st.none() | column_tuples(names),
        ))
    partition = None
    if single and draw(st.booleans()):
        partition = PartitionConfig(draw(st.sampled_from(single)),
                                    draw(st.integers(1, 16)))
    routing = ["balanced", "large_cluster"] + (
        ["partition_aware"] if partition else [])
    return TableConfig(
        logical_name=draw(st.sampled_from(["events", "t1"])),
        table_type=TableType.REALTIME if realtime else TableType.OFFLINE,
        schema=schema,
        replication=draw(st.integers(1, 3)),
        retention=draw(st.none() | st.integers(1, 400)),
        retention_granularity=TimeGranularity(
            draw(st.sampled_from(TimeUnit)), draw(st.integers(1, 7))),
        quota_bytes=draw(st.none() | st.integers(0, 10**12)),
        tier_to_remote_after=draw(st.none() | st.integers(0, 90)),
        segment_config=SegmentConfig(
            sorted_column=(None if upsert else
                           draw(st.none() | st.sampled_from(names))),
            inverted_columns=draw(column_tuples(names)),
            bloom_columns=draw(column_tuples(names)),
            star_tree=star_tree,
            timestamp_index=(() if upsert else draw(
                st.lists(st.integers(1, 30), max_size=3).map(tuple))),
        ),
        routing_strategy=draw(st.sampled_from(routing)),
        routing_options=draw(st.dictionaries(
            st.sampled_from(["target_servers", "keep_tables"]),
            st.integers(1, 50))),
        partition=partition,
        stream=draw(st.builds(
            StreamConfig, topic=st.sampled_from(["events-topic", "t"]),
            flush_threshold_rows=st.integers(1, 10_000),
            flush_threshold_ticks=st.none() | st.integers(1, 50),
            records_per_poll=st.integers(1, 1000),
        )) if realtime else None,
        tenant=draw(st.sampled_from(["DefaultTenant", "analytics"])),
        upsert=upsert,
    )


SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=6))
ops = st.builds(Op, kind=st.sampled_from(["query", "ingest", "crash_server"]),
                params=st.dictionaries(st.text(max_size=6), SCALARS,
                                       max_size=4))
schedules = st.builds(
    Schedule, seed=st.integers(0, 2**32), ops=st.lists(ops, max_size=5),
    config=st.dictionaries(st.sampled_from(["workload", "num_servers"]),
                           SCALARS))
violations = st.builds(
    Violation, invariant=st.sampled_from(["query_oracle", "harness_crash"]),
    detail=st.text(max_size=20), step=st.integers(-1, 200),
    op=st.none().map(lambda __: {}) | ops.map(to_plain))


# -- the round-trip property --------------------------------------------------

class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(table_configs())
    def test_table_config(self, config):
        assert round_trip(TableConfig, config) == config

    @settings(max_examples=150, deadline=None)
    @given(schemas())
    def test_schema(self, schema):
        assert round_trip(Schema, schema) == schema

    @settings(max_examples=100, deadline=None)
    @given(schedules)
    def test_schedule(self, schedule):
        assert round_trip(Schedule, schedule) == schedule
        assert Schedule.from_json(schedule.to_json()) == schedule

    @settings(max_examples=100, deadline=None)
    @given(violations)
    def test_violation(self, violation):
        assert round_trip(Violation, violation) == violation

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.fixed_dictionaries({
        "a": st.sampled_from(["x", "y", "z"]),
        "tags": st.lists(st.sampled_from(["p", "q"]), max_size=2),
        "n": st.integers(0, 9),
        "m": st.floats(-100, 100, width=32),
        "day": st.integers(100, 110),
    }), min_size=1, max_size=40),
        config=st.sampled_from([
            SegmentConfig(),
            SegmentConfig(sorted_column="n", inverted_columns=("a",),
                          bloom_columns=("a", "n")),
            SegmentConfig(star_tree=StarTreeConfig(max_leaf_records=3),
                          timestamp_index=(2,)),
            SegmentConfig(partition_column="day", num_partitions=1),
        ]))
    def test_metadata_of_built_segments(self, rows, config):
        schema = Schema("t", [
            dimension("a"), dimension("tags", multi_value=True),
            dimension("n", DataType.INT), metric("m", DataType.FLOAT),
            time_column("day", DataType.INT),
        ])
        builder = SegmentBuilder("seg_0", "t", schema, config)
        builder.add_all(rows)
        metadata = builder.build().metadata
        assert round_trip(SegmentMetadata, metadata) == metadata


# -- the rules a hand-edited or older file meets ------------------------------

SCHEMA = Schema("events", [dimension("country"),
                           metric("views", DataType.LONG),
                           time_column("day", DataType.INT)])


class TestRules:
    def test_partition_only_segment_config_round_trips(self):
        config = SegmentConfig(partition_column="country", num_partitions=4)
        assert round_trip(SegmentConfig, config) == config

    def test_unknown_key_raises(self):
        payload = to_plain(TableConfig.offline("events", SCHEMA))
        payload["segment_config"]["invertd_columns"] = ["country"]
        with pytest.raises(PinotError, match=r"TableConfig.*invertd_columns"):
            from_plain(TableConfig, payload)

    def test_missing_key_takes_the_default(self):
        payload = to_plain(TableConfig.offline("events", SCHEMA,
                                               replication=2))
        for key in ("tenant", "routing_options", "retention_granularity"):
            del payload[key]
        del payload["segment_config"]["star_tree"]
        config = from_plain(TableConfig, payload)
        assert config.replication == 2
        assert config.tenant == "DefaultTenant"
        assert config.routing_options == {}
        assert config.retention_granularity == TimeGranularity(TimeUnit.DAYS)
        assert config.segment_config.star_tree is None

    def test_null_for_a_non_optional_field_takes_the_default(self):
        payload = to_plain(TableConfig.offline("events", SCHEMA))
        payload["routing_options"] = None
        payload["segment_config"]["inverted_columns"] = None
        config = from_plain(TableConfig, payload)
        assert config.routing_options == {}
        assert config.segment_config.inverted_columns == ()

    def test_missing_required_field_raises(self):
        payload = to_plain(TableConfig.offline("events", SCHEMA))
        del payload["logical_name"]
        with pytest.raises(PinotError, match="logical_name"):
            from_plain(TableConfig, payload)

    @pytest.mark.parametrize("path, value", [
        (("replication",), "3"),
        (("replication",), True),
        (("table_type",), "offline"),
        (("segment_config", "inverted_columns"), "country"),
        (("retention_granularity",), {"unit": "DAYS", "size": 0}),
        (("stream",), ["topic"]),
    ])
    def test_a_value_to_plain_cannot_write_raises(self, path, value):
        payload = to_plain(TableConfig.offline("events", SCHEMA))
        *parents, key = path
        target = payload
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(PinotError, match="malformed TableConfig"):
            from_plain(TableConfig, payload)

    def test_enums_are_stored_by_name(self):
        assert to_plain(TimeGranularity(TimeUnit.HOURS, 6)) == {
            "unit": "HOURS", "size": 6}


# -- payloads that must not change ------------------------------------------

class TestPayloads:
    def test_schema_payload(self):
        assert json.dumps(SCHEMA.to_dict()) == (
            '{"name": "events", "fields": ['
            '{"name": "country", "dtype": "STRING", "role": "DIMENSION", '
            '"multi_value": false, "default": "null"}, '
            '{"name": "views", "dtype": "LONG", "role": "METRIC", '
            '"multi_value": false, "default": 0}, '
            '{"name": "day", "dtype": "INT", "role": "TIME", '
            '"multi_value": false, "default": 0}]}')

    def test_schedule_json(self):
        schedule = Schedule(seed=7, config={"workload": "upsert"}, ops=[
            Op("ingest", {"seed": 11, "count": 40}), Op("add_server")])
        assert schedule.to_json() == """{
  "config": {
    "workload": "upsert"
  },
  "ops": [
    {
      "kind": "ingest",
      "params": {
        "count": 40,
        "seed": 11
      }
    },
    {
      "kind": "add_server",
      "params": {}
    }
  ],
  "seed": 7
}"""

    def test_table_config_nests_the_segment_options(self):
        payload = to_plain(TableConfig.offline(
            "events", SCHEMA, segment_config=SegmentConfig(
                inverted_columns=("country",))))
        assert payload["segment_config"]["inverted_columns"] == ["country"]
        assert "inverted_columns" not in payload
