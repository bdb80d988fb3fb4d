"""A broker's record of a table (``_TableView`` in ``cluster/broker.py``)
says what ZooKeeper says, and spares the reads it replaces.

* Freshness: after any interleaving of upload, same-name replace,
  delete, tiering, ingest with seals, ``add_column``, ``delete_table``
  and re-create, crash and recover, kill, rebalance, ``evict_all`` and
  ``bump_epoch`` on a hybrid table, the broker's time boundary, approx
  estimates, prune summaries and consuming replicas equal fresh
  ZooKeeper reads, and a repeated text answers the rows of a
  ``skipCache`` run.
* Snapshot: a record changes only when its broker refreshes it. When
  Helix announces a view change, every record still holds exactly what
  it read, though Helix edits the view's dicts in place.
* Counts: after warm-up an offline query reads no znode, and a
  repeated hybrid or approx query reads no segment record.
* A re-created table is routed by its new config's strategy.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.pruner import record_summary
from repro.cluster import broker as broker_module
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import (
    StreamConfig,
    TableConfig,
    pushed_segment_records,
    read_segment_record,
)
from repro.common.schema import Schema
from repro.common.timeutils import TimeGranularity, TimeUnit, time_boundary
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import ClusterError
from repro.pql.rewriter import split_hybrid
from repro.routing.balanced import BalancedRouting
from repro.routing.large_cluster import LargeClusterRouting
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.zk.store import ZkStore

TOPIC = "events-topic"
OFFLINE, REALTIME = "events_OFFLINE", "events_REALTIME"
DAY = 17000
PQL = "SELECT count(*), sum(m) FROM events WHERE s = 'b' AND day >= 17002"


def schema():
    return Schema("events", [
        dimension("s"), dimension("n", DataType.LONG),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])


def records(count, first_day, seed=0):
    return [{"s": "abc"[(i + seed) % 3], "n": (i * 7 + seed) % 5,
             "m": i + seed, "day": first_day + i % 3}
            for i in range(count)]


def offline_config():
    return TableConfig.offline(
        "events", schema(), tier_to_remote_after=6,
        segment_config=SegmentConfig(bloom_columns=("s",)))


def hybrid_cluster():
    cluster = PinotCluster(num_servers=1)
    cluster.create_kafka_topic(TOPIC, 2)
    cluster.create_table(offline_config())
    cluster.create_table(TableConfig.realtime(
        "events", schema(),
        StreamConfig(TOPIC, flush_threshold_rows=6, records_per_poll=8)))
    cluster.upload_records("events", records(12, DAY), rows_per_segment=6)
    cluster.ingest(TOPIC, records(10, DAY + 3))
    cluster.drain_realtime()
    return cluster


# -- what ZooKeeper says ---------------------------------------------------------


def fresh_max_time(helix, table):
    return max((meta["max_time"] for meta in pushed_segment_records(helix,
                                                                    table)
                if meta.get("max_time") is not None), default=None)


def fresh_estimates(helix, tables, columns):
    total, cards = 0, {}
    for table in tables:
        for segment in helix.external_view(table):
            meta = read_segment_record(helix, table, segment)
            docs = meta.get("num_docs") or 0
            total += docs
            for column in columns:
                cards[column] = cards.get(column, 0) + (
                    meta.get("cardinalities") or {}).get(column, docs)
    return total, cards


def fresh_consuming(helix, table):
    return tuple((segment, instance)
                 for segment, states in helix.external_view(table).items()
                 for instance, state in states.items()
                 if state == "CONSUMING")


def comparable(summary):
    return {column: (c.min_value, c.max_value,
                     None if c.bloom_filter is None else
                     (c.bloom_filter.num_bits, c.bloom_filter.num_hashes,
                      c.bloom_filter.bits.tobytes()))
            for column, c in summary.columns.items()}


def assert_fresh(cluster, broker):
    helix = cluster.helix
    query = broker._plan("SELECT count(*) FROM events")[0]
    max_time = fresh_max_time(helix, OFFLINE)
    legs = [query.with_table(REALTIME)] if max_time is None else split_hybrid(
        query, "day", time_boundary(max_time, TimeGranularity(TimeUnit.DAYS)),
        OFFLINE, REALTIME)
    assert list(map(str, broker._resolve_physical_queries(query))) == list(
        map(str, legs))
    legs = [query.with_table(OFFLINE), query.with_table(REALTIME)]
    assert broker._approx_estimates(legs, {"s", "n"}) == fresh_estimates(
        helix, (OFFLINE, REALTIME), ("s", "n"))
    for table in (OFFLINE, REALTIME):
        view = broker._routed(table)
        assert view.consuming() == fresh_consuming(helix, table)
        for segment in helix.external_view(table):
            assert comparable(view.summary(segment)) == comparable(
                record_summary(read_segment_record(helix, table, segment),
                               view.config.time_column))


def assert_repeat_matches_uncached(cluster):
    """A repeated text answers what a ``skipCache`` run answers. A
    partial answer (a crashed replica) is no reference: a cache hit may
    rightly return the complete answer from before the crash."""
    first = cluster.execute(PQL)
    second = cluster.execute(PQL)
    truth = cluster.execute(PQL + " OPTION(skipCache=true)")
    if truth.is_partial:
        return
    for response in (first, second):
        assert not response.is_partial
        assert response.rows == truth.rows


# -- the snapshot check ------------------------------------------------------------


def held(view):
    """What a record holds, deep-copied (``None`` for the unread)."""
    max_time = (None if view._max_time is broker_module._UNREAD
                else ("read", view._max_time))
    return copy.deepcopy((view._replicas, view._consuming, view._records,
                          max_time))


class Snapshots:
    """Every record's held state as of its broker's last refresh,
    checked each time Helix announces a view change."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.taken: list = []
        notify = cluster.helix._notify_view

        def checked_notify(resource):
            self.check()
            notify(resource)

        cluster.helix._notify_view = checked_notify

    def take(self):
        self.taken = [(view, held(view))
                      for broker in self.cluster.brokers
                      for view in broker._tables.values()]

    def check(self):
        for view, state in self.taken:
            replicas, consuming, records, max_time = held(view)
            if replicas is not None:  # None: dropped by an earlier change
                assert replicas == state[0], view.table
            assert (consuming, records, max_time) == state[1:], view.table


# -- the interleavings ---------------------------------------------------------------

OPS = st.one_of(
    st.tuples(st.just("upload"), st.integers(0, 8), st.integers(1, 9)),
    st.tuples(st.just("replace"), st.integers(0, 9), st.integers(0, 12)),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("tier"), st.integers(4, 14)),
    st.tuples(st.just("ingest"), st.integers(1, 14), st.integers(0, 8)),
    st.tuples(st.just("add_column"), st.sampled_from([OFFLINE, REALTIME])),
    st.tuples(st.just("recreate")),
    st.tuples(st.just("crash"), st.integers(0, 9)),
    st.tuples(st.just("recover"), st.integers(0, 9)),
    st.tuples(st.just("kill"), st.integers(0, 9)),
    st.tuples(st.just("add_server")),
    st.tuples(st.just("rebalance"), st.sampled_from([OFFLINE, REALTIME])),
    st.tuples(st.just("evict"), st.integers(0, 9)),
    st.tuples(st.just("bump"), st.sampled_from([OFFLINE, REALTIME])),
)


def apply(cluster, op, step):
    """Run one op; one the cluster refuses (no live server to place a
    segment on, say) is a no-op, and the checks after it still hold."""
    try:
        _apply(cluster, op, step)
    except ClusterError:
        pass


def _apply(cluster, op, step):
    controller = cluster.leader_controller()
    kind = op[0]
    segments = controller.list_segments(OFFLINE)
    server = None
    if kind in ("crash", "recover", "kill", "evict"):
        if not cluster.servers:
            return
        server = cluster.servers[op[-1] % len(cluster.servers)]
    if kind == "upload":
        cluster.upload_records("events", records(op[2], DAY + op[1], step))
    elif kind == "replace" and segments:
        name = segments[op[1] % len(segments)]
        config = cluster.table_config(OFFLINE)
        builder = SegmentBuilder(name, OFFLINE, config.schema,
                                 config.segment_config)
        builder.add_all(records(4 + op[1], DAY + op[2], step))
        controller.replace_segment(OFFLINE, builder.build())
    elif kind == "delete" and segments:
        controller.delete_segment(OFFLINE, segments[op[1] % len(segments)])
    elif kind == "tier":
        cluster.run_tiering(now=DAY + op[1])
    elif kind == "ingest":
        cluster.ingest(TOPIC, records(op[1], DAY + op[2], step))
        cluster.drain_realtime()
    elif kind == "add_column":
        controller.add_column(op[1], dimension(f"extra{step}"))
    elif kind == "recreate":
        controller.delete_table(OFFLINE)
        cluster.create_table(offline_config())
    elif kind == "crash":
        cluster.crash_server(server.instance_id)
    elif kind == "recover":
        server.faults.recover()
    elif kind == "kill":
        cluster.kill_server(server.instance_id)
    elif kind == "add_server":
        cluster.add_server()
    elif kind == "rebalance":
        controller.rebalance_table(op[1])
    elif kind == "evict":
        server.segment_cache.evict_all()
    elif kind == "bump":
        cluster.helix.bump_epoch(op[1])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(OPS, min_size=1, max_size=10))
def test_record_matches_zookeeper_after_any_interleaving(ops):
    cluster = hybrid_cluster()
    broker = cluster.brokers[0]
    snapshots = Snapshots(cluster)
    assert_repeat_matches_uncached(cluster)
    for step, op in enumerate(ops):
        snapshots.take()
        apply(cluster, op, step)
        snapshots.check()
        assert_repeat_matches_uncached(cluster)
        assert_fresh(cluster, broker)


# -- reads saved ---------------------------------------------------------------------


def count_reads(monkeypatch):
    """Record the path of every znode read (what the e2e benchmark's
    ``zk.store.reads_per_op`` counts)."""
    paths: list[str] = []
    for name in ("get", "get_or_default"):
        original = getattr(ZkStore, name)

        def counted(self, path, *args, _original=original):
            paths.append(path)
            return _original(self, path, *args)

        monkeypatch.setattr(ZkStore, name, counted)
    return paths


def segment_reads(paths):
    return [p for p in paths
            if "/propertystore/segments/" in p
            or "/propertystore/realtime/" in p]


class TestReadsSaved:
    def test_offline_query_reads_no_znode(self, monkeypatch):
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(offline_config())
        cluster.upload_records("events", records(24, DAY),
                               rows_per_segment=6)
        cluster.execute("SELECT count(*) FROM events WHERE m > 0")
        paths = count_reads(monkeypatch)
        response = cluster.execute("SELECT count(*) FROM events WHERE m > 1")
        assert response.rows == [(22,)]
        assert paths == []

    def test_repeated_hybrid_query_reads_no_segment_record(self,
                                                           monkeypatch):
        cluster = hybrid_cluster()
        texts = [f"SELECT count(*) FROM events WHERE m > {n}"
                 for n in range(3)]
        cluster.execute(texts[0])
        paths = count_reads(monkeypatch)
        for text in texts[1:]:
            cluster.execute(text)
        assert segment_reads(paths) == []

    def test_repeated_approx_query_reads_no_segment_record(self,
                                                           monkeypatch):
        cluster = hybrid_cluster()
        texts = [f"SELECT distinctcount(s) FROM events WHERE m > {n} "
                 "OPTION(useApproximateFunction=true)" for n in range(3)]
        cluster.execute(texts[0])
        paths = count_reads(monkeypatch)
        for text in texts[1:]:
            cluster.execute(text)
        assert segment_reads(paths) == []

    def test_a_data_change_is_read_once(self, monkeypatch):
        cluster = hybrid_cluster()
        cluster.execute(PQL)
        cluster.upload_records("events", records(6, DAY + 5))
        paths = count_reads(monkeypatch)
        cluster.execute("SELECT count(*) FROM events WHERE m > 3")
        first = len(segment_reads(paths))
        assert first > 0
        cluster.execute("SELECT count(*) FROM events WHERE m > 4")
        assert len(segment_reads(paths)) == first


class TestRecreatedTable:
    def test_new_config_brings_its_routing_strategy(self):
        wvmp = Schema("wvmp", [dimension("vieweeId", DataType.LONG),
                               metric("views", DataType.LONG)])
        rows = [{"vieweeId": i, "views": 1} for i in range(20)]
        cluster = PinotCluster(num_servers=3)
        cluster.create_table(TableConfig.offline("wvmp", wvmp))
        cluster.upload_records("wvmp", rows, rows_per_segment=5)
        broker = cluster.brokers[0]
        assert cluster.execute("SELECT count(*) FROM wvmp").rows == [(20,)]
        assert isinstance(broker._routed("wvmp_OFFLINE").strategy,
                          BalancedRouting)

        cluster.leader_controller().delete_table("wvmp_OFFLINE")
        cluster.create_table(TableConfig.offline(
            "wvmp", wvmp, routing_strategy="large_cluster"))
        cluster.upload_records("wvmp", rows[:10], rows_per_segment=5)
        assert cluster.execute("SELECT count(*) FROM wvmp").rows == [(10,)]
        assert isinstance(broker._routed("wvmp_OFFLINE").strategy,
                          LargeClusterRouting)
