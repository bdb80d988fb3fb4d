"""Servers answer repeated texts on sealed segments from cached partials
(``repro.cache.partials``).

* What is cached: a sealed segment's partial, once the server has seen
  the text before. Never a consuming snapshot, an upsert or dedup
  table's segment, or a ``skipCache`` sub-request.
* The key is the query's text, not the ``Query``: ``s = 5`` and
  ``s = 5.0`` on a STRING column answer differently.
* A hit is the uncached answer, stats included, and a traced segment
  span says ``cached``.
* The property: any interleaving of upload, same-name replace, delete,
  ``add_column``, ingest with seals, and queries repeated three times
  answers exactly what an uncached run answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.partials import SegmentPartialCache
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.segment.builder import SegmentBuilder
from repro.upsert import UpsertConfig

TOPIC = "events-topic"


def schema():
    return Schema("events", [
        dimension("s"), dimension("n", DataType.LONG),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])


def record(i, day=17000):
    return {"s": "abc"[i % 3] if i % 4 else "5", "n": i % 5, "m": i,
            "day": day}


def offline_cluster(rows=40):
    cluster = PinotCluster(num_servers=2)
    cluster.create_table(TableConfig.offline("events", schema()))
    cluster.upload_records("events", [record(i) for i in range(rows)],
                           rows_per_segment=10)
    return cluster


def realtime_cluster(upsert=None):
    cluster = PinotCluster(num_servers=2)
    cluster.create_kafka_topic(TOPIC, 2)
    cluster.create_table(TableConfig.realtime(
        "events", schema(),
        StreamConfig(TOPIC, flush_threshold_rows=6, records_per_poll=8),
        upsert=upsert,
    ))
    return cluster


def counts(cluster, name):
    return sum(server.metrics.count(f"segment_partial_{name}")
               for server in cluster.servers)


def run(cluster, pql):
    """One query past the broker's result cache, so every run reaches
    the servers."""
    for broker in cluster.brokers:
        broker.result_cache.clear()
    response = cluster.execute(pql)
    assert not response.is_partial, response.exceptions
    return response


def uncached(cluster, pql):
    """``pql``'s answer from servers with no partial cache."""
    kept = [server.partial_cache for server in cluster.servers]
    for server in cluster.servers:
        server.partial_cache = SegmentPartialCache(server.metrics)
    try:
        return run(cluster, pql)
    finally:
        for server, cache in zip(cluster.servers, kept):
            server.partial_cache = cache


class TestWhatIsCached:
    def test_second_sighting_stores_and_third_hits(self):
        cluster = offline_cluster()
        pql = "SELECT count(*), sum(m) FROM events WHERE n < 3"
        first = run(cluster, pql)
        assert counts(cluster, "admitted") == 0
        run(cluster, pql)
        assert counts(cluster, "admitted") == 4
        assert counts(cluster, "hits") == 0
        third = run(cluster, pql)
        assert counts(cluster, "hits") == 4
        assert third.rows == first.rows and third.stats == first.stats
        assert sum(server.metrics.gauge_value("segment_partial_entries")
                   for server in cluster.servers) == 4

    def test_unique_texts_store_nothing(self):
        cluster = offline_cluster()
        for n in range(20):
            run(cluster, f"SELECT count(*) FROM events WHERE m > {n}")
        assert counts(cluster, "admitted") == 0
        assert counts(cluster, "misses") == 0
        assert all(len(server.partial_cache) == 0
                   for server in cluster.servers)

    def test_skip_cache_neither_reads_nor_stores(self):
        cluster = offline_cluster()
        pql = "SELECT count(*) FROM events OPTION(skipCache=true)"
        for __ in range(3):
            cluster.execute(pql)
        assert counts(cluster, "admitted") == counts(cluster, "hits") == 0

    def test_consuming_snapshots_are_never_cached(self):
        cluster = realtime_cluster()
        cluster.ingest(TOPIC, [record(i) for i in range(4)])
        cluster.drain_realtime()
        pql = "SELECT count(*) FROM events"
        for __ in range(3):
            assert run(cluster, pql).rows == [(4,)]
        assert counts(cluster, "admitted") == 0
        cluster.ingest(TOPIC, [record(i) for i in range(4, 30)])
        cluster.drain_realtime()
        for __ in range(3):
            assert run(cluster, pql).rows == [(30,)]
        assert counts(cluster, "admitted") > 0
        # The sealed ones: stored on the first run after the ingest,
        # hit on the two after it.
        assert counts(cluster, "hits") == 2 * counts(cluster, "admitted")
        assert counts(cluster, "admitted") < len(
            cluster.leader_controller().list_segments("events_REALTIME"))

    @pytest.mark.parametrize("mode", ["upsert", "dedup"])
    def test_upsert_and_dedup_tables_are_never_cached(self, mode):
        cluster = realtime_cluster(UpsertConfig(mode=mode,
                                                key_columns=("n",)))
        cluster.ingest(TOPIC, [record(i) for i in range(30)],
                       key_column="n")
        cluster.drain_realtime()
        for __ in range(3):
            run(cluster, "SELECT count(*) FROM events")
        assert counts(cluster, "admitted") == counts(cluster, "misses") == 0

    def test_cached_partials_are_read_only(self):
        cluster = offline_cluster()
        pql = "SELECT sum(m) FROM events GROUP BY s TOP 10"
        run(cluster, pql)
        run(cluster, pql)
        cache = cluster.servers[0].partial_cache
        __, result = next(iter(cache._lru._entries.values()))[0]
        assert not any(key.flags.writeable for key in result.group_by.keys)
        assert not result.group_by.states[0].flags.writeable


class TestKey:
    def test_literal_types_are_told_apart(self):
        """``s = 5`` and ``s = 5.0`` are one ``Query`` (equal and same
        hash) but different answers on a STRING column."""
        cluster = offline_cluster()
        exact, spelled = ("SELECT count(*) FROM events WHERE s = 5",
                          "SELECT count(*) FROM events WHERE s = 5.0")
        want = {pql: uncached(cluster, pql).rows for pql in (exact, spelled)}
        assert want[exact] != want[spelled]
        for __ in range(3):
            for pql in (exact, spelled):
                assert run(cluster, pql).rows == want[pql]

    def test_skip_prune_is_part_of_the_key(self):
        cluster = offline_cluster()
        pruned = "SELECT count(*) FROM events WHERE m > 25"
        unpruned = pruned + " OPTION(skipPrune=true)"
        for __ in range(3):
            for pql in (unpruned, pruned):
                assert run(cluster, pql).stats == uncached(cluster,
                                                           pql).stats
        assert run(cluster, pruned).stats.num_segments_pruned_by_server > 0

    def test_a_traced_hit_says_cached(self):
        cluster = offline_cluster()
        pql = "SELECT count(*) FROM events OPTION(trace=true)"
        run(cluster, pql)
        run(cluster, pql)

        def segment_spans(tree):
            own = [tree] if tree["name"] == "segment" else []
            return own + [span for child in tree["children"]
                          for span in segment_spans(child)]

        spans = segment_spans(run(cluster, pql).trace)
        assert len(spans) == 4
        assert all(span["attributes"].get("cached") for span in spans)


class TestInvalidation:
    def test_same_name_replace_misses(self):
        cluster = offline_cluster()
        pql = "SELECT sum(m) FROM events"
        for __ in range(2):
            run(cluster, pql)
        controller = cluster.leader_controller()
        config = controller.table_config("events_OFFLINE")
        builder = SegmentBuilder("events_OFFLINE_00000", "events_OFFLINE",
                                 config.schema, config.segment_config)
        builder.add_all([record(1000)])
        controller.replace_segment("events_OFFLINE", builder.build())
        assert run(cluster, pql).rows == uncached(cluster, pql).rows

    def test_add_column_widens_select_star(self):
        cluster = offline_cluster()
        pql = "SELECT * FROM events ORDER BY m LIMIT 3"
        for __ in range(2):
            run(cluster, pql)
        cluster.leader_controller().add_column("events_OFFLINE",
                                               dimension("platform"))
        assert "platform" in run(cluster, pql).table.columns


# -- the property --------------------------------------------------------------

TABLES = ("events_OFFLINE", "events_REALTIME")
TEXTS = (
    "SELECT count(*), sum(m) FROM {t}",
    "SELECT count(*) FROM {t} WHERE n < 2",
    "SELECT sum(m), distinctcount(s) FROM {t} WHERE m > 20 GROUP BY s TOP 5",
    "SELECT * FROM {t} ORDER BY m DESC LIMIT 4",
    "SELECT n, m FROM {t} WHERE s = 'a' ORDER BY m LIMIT 3",
)
changes = st.one_of(
    st.tuples(st.just("upload"), st.integers(1, 12)),
    st.tuples(st.just("replace"), st.integers(0, 5), st.integers(1, 12)),
    st.tuples(st.just("delete"), st.integers(0, 5)),
    st.just(("add_column",)),
    st.tuples(st.just("ingest"), st.integers(1, 14)),
)


class _World:
    """An offline and a realtime table, the changes of the property,
    and its check."""

    def __init__(self):
        cluster = PinotCluster(num_servers=2)
        cluster.create_kafka_topic(TOPIC, 2)
        cluster.create_table(TableConfig.offline("events", schema()))
        cluster.create_table(TableConfig.realtime(
            "events", schema(),
            StreamConfig(TOPIC, flush_threshold_rows=5, records_per_poll=4),
        ))
        self.cluster = cluster
        self.controller = cluster.leader_controller()
        self.rows = 0
        self.columns = 0

    def records(self, count):
        self.rows += count
        return [record(self.rows - i, day=17000 + self.rows % 3)
                for i in range(count)]

    def change(self, op):
        kind = op[0]
        offline = TABLES[0]
        names = self.controller.list_segments(offline)
        if kind == "upload":
            self.cluster.upload_records(offline, self.records(op[1]),
                                        rows_per_segment=6)
        elif kind == "replace" and names:
            config = self.controller.table_config(offline)
            builder = SegmentBuilder(names[op[1] % len(names)], offline,
                                     config.schema, config.segment_config)
            builder.add_all(self.records(op[2]))
            self.controller.replace_segment(offline, builder.build())
        elif kind == "delete" and names:
            self.controller.delete_segment(offline, names[op[1] % len(names)])
        elif kind == "add_column":
            self.columns += 1
            for table in TABLES:
                self.controller.add_column(table,
                                           dimension(f"c{self.columns}"))
        elif kind == "ingest":
            self.cluster.ingest(TOPIC, self.records(op[1]))
            self.cluster.drain_realtime()

    def check(self, text):
        """Three runs of ``text`` on each table: the rows of a
        ``skipCache`` run, the stats of a run with no partial cache."""
        for table in TABLES:
            pql = text.format(t=table)
            truth = self.cluster.execute(pql + " OPTION(skipCache=true)")
            stats = uncached(self.cluster, pql).stats
            for __ in range(3):
                response = run(self.cluster, pql)
                assert response.table.columns == truth.table.columns, pql
                assert response.rows == truth.rows, pql
                assert response.stats == stats, pql


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(changes, st.sampled_from(TEXTS)),
                min_size=1, max_size=10))
def test_cached_answers_equal_uncached_ones(program):
    """After each change one text runs three times on each table; at
    the end every text does."""
    world = _World()
    for change, text in program:
        world.change(change)
        world.check(text)
    for text in TEXTS:
        world.check(text)
