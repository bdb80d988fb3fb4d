"""Properties of the one prune check (``repro.cache.pruner``).

*Soundness*: whenever the compiled check names a reason to skip a
segment — from the segment's own metadata (the server's view) or from
what its ZK record publishes (the broker's view) — the scalar oracle
matches no document in that segment.

*Transparency*: through the whole cluster, ``Q``,
``Q OPTION(skipPrune=true)`` and ``Q OPTION(skipCache=true)`` return
the same rows on an offline table, a partition-aware table and a hybrid
table with a non-empty consuming segment.

Predicates are top-level ANDs mixing int / float / string literals and
EQ / NEQ / range / BETWEEN / [NOT] IN leaves over the time column
(``day``), the partition column (``memberId``), the sorted column
(``rank``) and plain columns (``country`` with a bloom, ``views``).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache.pruner import compile_pruner, prune_reason, record_summary
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import (
    PartitionConfig,
    StreamConfig,
    TableConfig,
    read_segment_record,
)
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig

SCHEMA = Schema("events", [
    dimension("memberId", DataType.LONG), dimension("rank", DataType.LONG),
    dimension("country"), metric("views", DataType.LONG),
    time_column("day", DataType.INT),
])
COUNTRIES = ("us", "ca", "in", "7", "12")
DAYS = range(17000, 17008)
SEGMENT_CONFIG = SegmentConfig(sorted_column="rank",
                               bloom_columns=("country", "memberId"))


def records(n, offset=0):
    return [
        {"memberId": (i * 7 + offset) % 40, "rank": (i * 3) % 31,
         "country": COUNTRIES[(i + offset) % len(COUNTRIES)],
         "views": i % 9, "day": DAYS[(i // 60 + offset) % len(DAYS)]}
        for i in range(n)
    ]


# -- predicates ---------------------------------------------------------------

NUMERIC = {"day": (16998, 17010), "memberId": (-2, 42), "rank": (-2, 33),
           "views": (-1, 10)}


def literal_text(value):
    return f"'{value}'" if isinstance(value, str) else repr(value)


def literals(column):
    if column == "country":
        # Strings, and numbers a STRING column compares by their text.
        return st.one_of(st.sampled_from(COUNTRIES + ("zz", "")),
                         st.sampled_from((7, 12, 99)))
    low, high = NUMERIC[column]
    whole = st.integers(low, high)
    return st.one_of(whole, whole.map(float), whole.map(lambda v: v + 0.5))


@st.composite
def leaves(draw):
    column = draw(st.sampled_from(("day", "memberId", "rank", "views",
                                   "country")))
    value = literals(column)
    kind = draw(st.sampled_from(("cmp", "cmp", "between", "in")))
    if kind == "cmp":
        op = draw(st.sampled_from(("=", "!=", "<", "<=", ">", ">=")))
        return f"{column} {op} {literal_text(draw(value))}"
    if kind == "between":
        if column == "country":
            value = st.sampled_from(COUNTRIES + ("zz",))
        low, high = sorted((draw(value), draw(value)))
        return (f"{column} BETWEEN {literal_text(low)} "
                f"AND {literal_text(high)}")
    members = ", ".join(literal_text(v)
                        for v in draw(st.lists(value, min_size=1,
                                               max_size=3)))
    keyword = draw(st.sampled_from(("IN", "IN", "NOT IN")))
    return f"{column} {keyword} ({members})"


@st.composite
def predicates(draw):
    """A top-level AND of leaves, one of which may be an OR."""
    parts = draw(st.lists(leaves(), min_size=1, max_size=3))
    if draw(st.booleans()):
        parts.append(f"({draw(leaves())} OR {draw(leaves())})")
    return " AND ".join(parts)


# The two wrong answers of the parent commit, and the bloom coercion.
KNOWN = (
    "day > 17006.5", "day < 17000.5", "memberId = 7.0",
    "memberId IN (7, 14.0)", "country = 7", "country IN (12, 99)",
    "day IN (17001, 17003) AND rank >= 4",
)


def with_known_examples(test):
    for where in KNOWN:
        test = example(where)(test)
    return test


# -- (i) soundness --------------------------------------------------------------


@pytest.fixture(scope="module")
def segments():
    """(segment, its published ZK record) pairs: distinct day ranges,
    one partition each."""
    # No bloom on memberId, or it would always speak before the
    # partition check does.
    config = SegmentConfig(sorted_column="rank", bloom_columns=("country",),
                           partition_column="memberId", num_partitions=4)
    cluster = PinotCluster(num_servers=1)
    cluster.create_table(TableConfig.offline(
        "events", SCHEMA, segment_config=config,
        partition=PartitionConfig("memberId", 4)))
    built = cluster.build_segments("events_OFFLINE", records(960),
                                   rows_per_segment=80)
    for segment in built:
        cluster.leader_controller().upload_segment("events_OFFLINE",
                                                   segment)
    return [(segment, read_segment_record(cluster.helix, "events_OFFLINE",
                                          segment.name))
            for segment in built]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(predicates())
@with_known_examples
def test_a_named_reason_means_no_document_matches(segments, where):
    query = optimize(parse(f"SELECT count(*) FROM events WHERE {where}"))
    check = compile_pruner(query)
    for segment, record in segments:
        reasons = {
            prune_reason(segment.metadata, check),
            prune_reason(record_summary(record, "day"), check),
        } - {None}
        if not reasons:
            continue
        result = execute_segment(segment, query, vectorized=False)
        assert result.aggregation.states[0] == 0, (
            where, segment.name, reasons)


def test_the_check_does_prune(segments):
    """The property above is not vacuous: each reason fires."""
    def reasons(where):
        check = compile_pruner(
            parse(f"SELECT count(*) FROM events WHERE {where}"))
        return {prune_reason(s.metadata, check) for s, __ in segments}

    assert "zone_map" in reasons("day = 17003")
    by_day = compile_pruner(
        parse("SELECT count(*) FROM events WHERE day = 17003"))
    assert "zone_map" in {prune_reason(record_summary(record, "day"), by_day)
                          for __, record in segments}
    assert "bloom" in reasons("country = 'de'")
    assert "partition" in reasons("memberId = 7 AND day >= 17000")


# -- (ii) transparency through the cluster ----------------------------------------


def truth_segment(visible):
    """Every visible row in one unpruned segment, for the scalar oracle."""
    builder = SegmentBuilder("truth", "events", SCHEMA, SegmentConfig())
    builder.add_all(visible)
    return builder.build()


def offline_cluster(**table_kwargs):
    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline(
        "events", SCHEMA, replication=1, segment_config=SEGMENT_CONFIG,
        **table_kwargs))
    cluster.upload_records("events", records(960), rows_per_segment=120)
    return cluster, truth_segment(records(960))


def hybrid_cluster():
    cluster = PinotCluster(num_servers=2)
    cluster.create_kafka_topic("events-rt", 1)
    cluster.create_table(TableConfig.offline(
        "events", SCHEMA, segment_config=SEGMENT_CONFIG))
    cluster.create_table(TableConfig.realtime(
        "events", SCHEMA,
        StreamConfig("events-rt", flush_threshold_rows=150,
                     records_per_poll=100),
        segment_config=SEGMENT_CONFIG))
    offline, realtime = records(480), records(400, offset=3)
    cluster.upload_records("events", offline, rows_per_segment=120)
    cluster.ingest("events-rt", realtime)
    cluster.drain_realtime()
    consuming = [server.num_docs("events_REALTIME")
                 for server in cluster.servers]
    assert 400 % 150 and sum(consuming) > 0  # a non-empty consuming tail
    boundary = max(DAYS) - 1  # newest offline day, minus one bucket
    return cluster, truth_segment(
        [r for r in offline if r["day"] <= boundary]
        + [r for r in realtime if r["day"] > boundary])


@pytest.fixture(scope="module")
def clusters():
    return {
        "offline": offline_cluster(),
        "partition_aware": offline_cluster(
            partition=PartitionConfig("memberId", 4),
            routing_strategy="partition_aware"),
        "hybrid": hybrid_cluster(),
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(predicates())
@with_known_examples
def test_skip_options_never_change_rows(clusters, where):
    pql = f"SELECT count(*), sum(views) FROM events WHERE {where}"
    for name, (cluster, truth) in clusters.items():
        count, total = execute_segment(
            truth, optimize(parse(pql)), vectorized=False,
        ).aggregation.states
        for option in ("", " OPTION(skipPrune=true)",
                       " OPTION(skipCache=true)"):
            response = cluster.execute(pql + option)
            assert not response.is_partial, (name, where, option)
            assert response.rows == [(count, float(total))], (
                name, where, option)
