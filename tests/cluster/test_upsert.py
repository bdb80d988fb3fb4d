"""Primary-key upsert & stream dedup across the cluster (repro.upsert).

The regression catalogue for the completion/failover windows the
version-map design must survive:

* consuming rows shadow committed rows of the same key;
* the seal/commit handoff keeps the mask aligned (docIds are stable
  through seal, so the consuming-time bitmap stays authoritative);
* replica failover, restart and rebalance rebuild the PK index to
  identical state on every replica;
* dedup drops duplicate-key rows at ingestion and still drains;
* broker result caches never serve stale answers after already
  committed segments get masked (the upsert-state epoch).
"""

import numpy as np
import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.server import parse_realtime_segment_name
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import ClusterError
from repro.segment.builder import SegmentConfig
from repro.startree.builder import StarTreeConfig
from repro.upsert import TableUpsertManager, UpsertConfig

TOPIC = "profiles-topic"
TABLE = "profiles_REALTIME"


def schema():
    return Schema("profiles", [
        dimension("memberId", DataType.LONG),
        dimension("country"),
        metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])


def row(member, views, country="us", day=17000):
    return {"memberId": member, "country": country, "views": views,
            "day": day}


def make_cluster(mode="upsert", comparison=None, num_servers=3,
                 replication=2, partitions=1, flush_rows=6,
                 flush_ticks=None):
    cluster = PinotCluster(num_servers=num_servers)
    cluster.create_kafka_topic(TOPIC, partitions)
    cluster.create_table(TableConfig.realtime(
        "profiles", schema(),
        StreamConfig(TOPIC, flush_threshold_rows=flush_rows,
                     flush_threshold_ticks=flush_ticks,
                     records_per_poll=8),
        replication=replication,
        upsert=UpsertConfig(mode=mode, key_columns=("memberId",),
                            comparison_column=comparison),
    ))
    return cluster


def query_rows(cluster, pql):
    response = cluster.execute(pql + " OPTION(skipCache=true)")
    assert not response.is_partial, pql
    return response.rows


def latest_views(cluster):
    """{memberId: views} as the cluster currently answers it."""
    rows = query_rows(
        cluster, "SELECT sum(views) FROM profiles GROUP BY memberId "
                 "TOP 1000")
    return {member: views for member, views in rows}


def hosting_managers(cluster):
    """(server, manager) for every server hosting the upsert table."""
    out = []
    for server in cluster.servers:
        manager = server.upsert_manager(TABLE)
        if manager is not None and manager.keys_tracked:
            out.append((server, manager))
    return out


def committed_segments(cluster):
    helix = cluster.helix
    names = []
    for name in helix.list_properties(f"realtime/{TABLE}"):
        meta = helix.get_property(f"realtime/{TABLE}/{name}") or {}
        if meta.get("status") == "DONE":
            names.append(name)
    return sorted(names)


def assert_replicas_identical(cluster):
    """Every pair of replicas of a partition agrees on every mask —
    the convergence property the join-semilattice winner order buys."""
    ideal = cluster.helix.ideal_state(TABLE)
    for segment, replicas in ideal.items():
        masks = []
        for instance in replicas:
            server = cluster.server(instance)
            manager = server.upsert_manager(TABLE)
            try:
                num_docs = server.segment(TABLE, segment).num_docs
            except ClusterError:
                continue  # consuming here, committed elsewhere
            selection = manager.selection_for(segment, num_docs)
            mask = (selection.mask(num_docs) if selection is not None
                    else np.ones(num_docs, dtype=bool))
            masks.append((instance, mask))
        for (a, mask_a), (b, mask_b) in zip(masks, masks[1:]):
            assert np.array_equal(mask_a, mask_b), (segment, a, b)


class TestConfigValidation:
    def test_mode_and_key_required(self):
        with pytest.raises(ClusterError):
            UpsertConfig(mode="bogus", key_columns=("memberId",))
        with pytest.raises(ClusterError):
            UpsertConfig(mode="upsert", key_columns=())

    def test_offline_table_rejected(self):
        with pytest.raises(ClusterError):
            TableConfig.offline(
                "profiles", schema(),
                upsert=UpsertConfig(mode="upsert",
                                    key_columns=("memberId",)))

    def test_sorted_column_rejected(self):
        # Seal would reorder docIds under the consuming-time bitmap.
        with pytest.raises(ClusterError):
            TableConfig.realtime(
                "profiles", schema(), StreamConfig(TOPIC),
                segment_config=SegmentConfig(sorted_column="memberId"),
                upsert=UpsertConfig(mode="upsert",
                                    key_columns=("memberId",)))

    def test_star_tree_rejected(self):
        # Pre-aggregated star-tree nodes cannot honour a doc mask.
        with pytest.raises(ClusterError):
            TableConfig.realtime(
                "profiles", schema(), StreamConfig(TOPIC),
                segment_config=SegmentConfig(
                    star_tree=StarTreeConfig(dimensions=("country",))),
                upsert=UpsertConfig(mode="upsert",
                                    key_columns=("memberId",)))

    def test_multi_value_key_rejected(self):
        mv_schema = Schema("profiles", [
            dimension("tags", multi_value=True),
            metric("views", DataType.LONG),
            time_column("day", DataType.INT),
        ])
        with pytest.raises(ClusterError):
            TableConfig.realtime(
                "profiles", mv_schema, StreamConfig(TOPIC),
                upsert=UpsertConfig(mode="upsert", key_columns=("tags",)))

    def test_roundtrip_through_dict(self):
        config = TableConfig.realtime(
            "profiles", schema(), StreamConfig(TOPIC),
            upsert=UpsertConfig(mode="dedup", key_columns=("memberId",)))
        restored = TableConfig.from_dict(config.to_dict())
        assert restored.upsert == config.upsert
        assert TableConfig.from_dict(
            TableConfig.realtime("profiles", schema(),
                                 StreamConfig(TOPIC)).to_dict()
        ).upsert is None


class TestUpsertIndex:
    """Unit-level semilattice properties of TableUpsertManager."""

    CONFIG = UpsertConfig(mode="upsert", key_columns=("memberId",))

    def test_reapplication_is_idempotent(self):
        manager = TableUpsertManager(TABLE, self.CONFIG)
        name = f"{TABLE}__0__0"
        assert manager.apply(name, 0, row(1, 10)) is False
        epoch = manager.state_epoch
        for __ in range(3):
            assert manager.apply(name, 0, row(1, 10)) is False
        assert manager.state_epoch == epoch
        assert manager.winner((1,)) == (name, 0)

    def test_cross_segment_supersede_bumps_epoch(self):
        manager = TableUpsertManager(TABLE, self.CONFIG)
        old = f"{TABLE}__0__0"
        new = f"{TABLE}__0__1"
        manager.apply(old, 0, row(1, 10))
        epoch = manager.state_epoch
        # A later sequence wins; the flip is in the *committed* segment,
        # which is exactly what cached results must be invalidated for.
        assert manager.apply(new, 0, row(1, 99)) is True
        assert manager.state_epoch > epoch
        assert manager.winner((1,)) == (new, 0)
        assert manager.selection_for(old, 1).count == 0

    def test_comparison_column_beats_arrival_order(self):
        config = UpsertConfig(mode="upsert", key_columns=("memberId",),
                              comparison_column="day")
        manager = TableUpsertManager(TABLE, config)
        name = f"{TABLE}__0__0"
        manager.apply(name, 0, row(1, 10, day=17005))
        manager.apply(name, 1, row(1, 99, day=17001))  # stale arrives late
        assert manager.winner((1,)) == (name, 0)
        selection = manager.selection_for(name, 2)
        assert list(selection.mask(2)) == [True, False]


class TestUpsertLatestValue:
    def test_latest_value_within_consuming_segment(self):
        cluster = make_cluster(flush_rows=100)
        cluster.ingest(TOPIC, [row(1, 10), row(2, 20), row(1, 11)],
                       key_column="memberId")
        cluster.drain_realtime()
        assert latest_views(cluster) == {1: 11.0, 2: 20.0}
        [[count]] = query_rows(cluster, "SELECT count(*) FROM profiles")
        assert count == 2

    def test_consuming_shadows_committed(self):
        # Segment 0 commits holding key 1's first version; the *still
        # consuming* segment 1 then receives a newer version, which must
        # mask the committed row immediately (no flush required).
        cluster = make_cluster(flush_rows=4)
        cluster.ingest(TOPIC, [row(m, m * 10) for m in (1, 2, 3, 4)],
                       key_column="memberId")
        cluster.drain_realtime()
        assert committed_segments(cluster)
        cluster.ingest(TOPIC, [row(1, 999)], key_column="memberId")
        cluster.drain_realtime()
        views = latest_views(cluster)
        assert views[1] == 999.0
        assert views[2] == 20.0
        [[count]] = query_rows(cluster, "SELECT count(*) FROM profiles")
        assert count == 4
        masked = sum(server.metrics.count("upsert_rows_masked")
                     for server in cluster.servers)
        assert masked > 0

    def test_latest_value_across_committed_chain(self):
        # Many generations of the same keys spread over several sealed
        # segments; only the last generation survives queries.
        cluster = make_cluster(flush_rows=5)
        for generation in range(4):
            cluster.ingest(
                TOPIC,
                [row(m, generation * 100 + m) for m in (1, 2, 3)],
                key_column="memberId")
            cluster.drain_realtime()
        assert len(committed_segments(cluster)) >= 2
        assert latest_views(cluster) == {1: 301.0, 2: 302.0, 3: 303.0}
        assert_replicas_identical(cluster)

    def test_seal_handoff_preserves_winner_identity(self):
        # DocIds are stable through seal (sorted_column is banned), so
        # the consuming-time winner entry stays valid verbatim after
        # the segment commits — no re-keying at the handoff.
        cluster = make_cluster(flush_rows=4)
        cluster.ingest(TOPIC, [row(1, 10), row(2, 20), row(1, 30),
                               row(3, 40)], key_column="memberId")
        cluster.drain_realtime()
        [sealed] = committed_segments(cluster)
        for server, manager in hosting_managers(cluster):
            assert manager.winner((1,)) == (sealed, 2)
            selection = manager.selection_for(
                sealed, server.segment(TABLE, sealed).num_docs)
            assert list(selection.mask(4)) == [False, True, True, True]
        assert latest_views(cluster) == {1: 30.0, 2: 20.0, 3: 40.0}


class TestDedup:
    def test_duplicates_dropped_at_ingestion(self):
        cluster = make_cluster(mode="dedup", flush_rows=4)
        cluster.ingest(TOPIC,
                       [row(1, 10), row(1, 11), row(2, 20), row(1, 12),
                        row(2, 21), row(3, 30)],
                       key_column="memberId")
        cluster.drain_realtime()
        # First occurrence per key wins; later duplicates never stored.
        assert latest_views(cluster) == {1: 10.0, 2: 20.0, 3: 30.0}
        [[count]] = query_rows(cluster, "SELECT count(*) FROM profiles")
        assert count == 3
        dropped = sum(server.metrics.count("dedup_rows_dropped")
                      for server in cluster.servers)
        # replication=2: each replica consumes (and drops) independently.
        assert dropped == 3 * 2

    def test_drain_completes_when_every_row_is_dropped(self):
        # Stored doc counts stall once the key space saturates; the
        # drain must keep going on consumer-offset progress alone.
        cluster = make_cluster(mode="dedup", flush_rows=50)
        cluster.ingest(TOPIC, [row(1, v) for v in range(30)],
                       key_column="memberId")
        cluster.drain_realtime()
        assert latest_views(cluster) == {1: 0.0}
        for server in cluster.servers:
            for (table, __), consuming in server._consuming.items():
                if table == TABLE:
                    assert consuming.offset == 30


class TestIngestValidation:
    @pytest.mark.parametrize("mode", ["upsert", "dedup"])
    def test_each_record_is_normalized_once(self, mode, monkeypatch):
        """The upsert/dedup gate needs the validated row; the segment
        stores that same row instead of validating the record again."""
        cluster = make_cluster(mode=mode, num_servers=1, replication=1,
                               flush_rows=100)
        records = [row(member % 25, member) for member in range(40)]
        calls = []
        normalize = Schema.normalize
        monkeypatch.setattr(
            Schema, "normalize",
            lambda self, record: calls.append(record) or normalize(
                self, record))
        cluster.ingest(TOPIC, records, key_column="memberId")
        cluster.drain_realtime()
        monkeypatch.undo()
        assert len(calls) == len(records)
        expected = ({m: float(m + 25 if m < 15 else m) for m in range(25)}
                    if mode == "upsert" else
                    {m: float(m) for m in range(25)})
        assert latest_views(cluster) == expected

    @pytest.mark.parametrize("mode", ["upsert", "dedup"])
    def test_records_may_carry_a_column_added_mid_consumption(self, mode):
        """Rows are validated against the consuming segment's schema,
        which gains an added column (§5.2), as on a plain table."""
        cluster = make_cluster(mode=mode, num_servers=1, replication=1,
                               flush_rows=100)
        cluster.ingest(TOPIC, [row(1, 10), row(2, 20)],
                       key_column="memberId")
        cluster.drain_realtime()
        cluster.leader_controller().add_column(TABLE, dimension("platform"))
        cluster.ingest(TOPIC, [{**row(3, 30), "platform": "ios"},
                               row(4, 40)], key_column="memberId")
        cluster.drain_realtime()
        assert sorted(query_rows(
            cluster, "SELECT count(*) FROM profiles GROUP BY platform "
                     "TOP 10")) == [("ios", 1), ("null", 3)]


class TestFailoverAndRebuild:
    def test_crashed_replica_fails_over_correctly(self):
        cluster = make_cluster(flush_rows=5)
        for generation in range(3):
            cluster.ingest(TOPIC,
                           [row(m, generation * 10 + m) for m in (1, 2)],
                           key_column="memberId")
            cluster.drain_realtime()
        hosting = [server for server, __ in hosting_managers(cluster)]
        cluster.crash_server(hosting[0].instance_id)
        assert latest_views(cluster) == {1: 21.0, 2: 22.0}

    def test_restarted_replica_rebuilds_identical_state(self):
        # A server losing and re-gaining a partition chain (rebalance to
        # a fresh server) rebuilds the PK index to the same masks the
        # incumbent replicas hold.
        cluster = make_cluster(num_servers=2, flush_rows=5)
        for generation in range(3):
            cluster.ingest(TOPIC,
                           [row(m, generation * 10 + m)
                            for m in (1, 2, 3)],
                           key_column="memberId")
            cluster.drain_realtime()
        before = latest_views(cluster)
        cluster.add_server()
        moves = cluster.leader_controller().rebalance_table(TABLE)
        assert any(segments for segments in moves.values())
        cluster.helix.converge(TABLE)
        assert_replicas_identical(cluster)
        assert latest_views(cluster) == before

    def test_rebalance_reseats_a_partition_that_lost_every_replica(self):
        # Both holders of the only partition die while __0__0 is
        # committed and __0__1 still consuming. A rebalance onto the two
        # blank servers re-seats the whole chain: the committed segment
        # ONLINE from the deep store, the consuming one CONSUMING from
        # its start offset (asking it for ONLINE would fail the whole
        # chain back to its dead holders and wedge the partition).
        cluster = make_cluster(num_servers=4, flush_rows=5)
        ledger = {}

        def produce(rows):
            cluster.ingest(TOPIC, rows, key_column="memberId")
            ledger.update({r["memberId"]: float(r["views"]) for r in rows})
            cluster.drain_realtime()

        for generation in range(3):
            produce([row(m, generation * 10 + m) for m in (1, 2, 3)])
        ideal = cluster.helix.ideal_state(TABLE)
        assert committed_segments(cluster) == [f"{TABLE}__0__0"]
        holders = set().union(*ideal.values())
        assert len(holders) == 2
        for instance in sorted(holders):
            cluster.kill_server(instance)
        cluster.leader_controller().rebalance_table(TABLE)
        cluster.helix.converge(TABLE)

        view = cluster.helix.external_view(TABLE)
        live = {server.instance_id for server in cluster.servers}
        for segment in ideal:
            state = ("ONLINE" if segment in committed_segments(cluster)
                     else "CONSUMING")
            replicas = view.get(segment, {})
            assert set(replicas) <= live, segment
            assert list(replicas.values()) == [state] * 2, segment
        produce([row(m, 100 + m) for m in (3, 4)])
        assert latest_views(cluster) == ledger
        assert_replicas_identical(cluster)

    def test_explicit_rebuild_is_idempotent(self):
        cluster = make_cluster(flush_rows=5)
        for generation in range(2):
            cluster.ingest(TOPIC,
                           [row(m, generation * 10 + m) for m in (1, 2)],
                           key_column="memberId")
            cluster.drain_realtime()
        server, manager = hosting_managers(cluster)[0]
        snapshot = {
            name: list(manager.selection_for(
                name, server.segment(TABLE, name).num_docs).mask(
                    server.segment(TABLE, name).num_docs))
            for name in committed_segments(cluster)
            if manager.selection_for(
                name, server.segment(TABLE, name).num_docs) is not None
        }
        rebuilds = server.metrics.count("upsert_index_rebuilds")
        server._rebuild_upsert_index(TABLE)
        assert server.metrics.count("upsert_index_rebuilds") == rebuilds + 1
        for name, mask in snapshot.items():
            num_docs = server.segment(TABLE, name).num_docs
            assert list(manager.selection_for(name, num_docs)
                        .mask(num_docs)) == mask

    def test_upsert_partitions_are_colocated(self):
        # The complete-replica invariant: a server hosting any segment
        # of a partition hosts all of them, so its masks are complete.
        cluster = make_cluster(flush_rows=4, partitions=2,
                               num_servers=4)
        for generation in range(3):
            cluster.ingest(TOPIC,
                           [row(m, generation + m) for m in range(8)],
                           key_column="memberId")
            cluster.drain_realtime()
        ideal = cluster.helix.ideal_state(TABLE)
        by_partition = {}
        for segment, replicas in ideal.items():
            __, partition, __seq = parse_realtime_segment_name(segment)
            by_partition.setdefault(partition, []).append(
                (segment, set(replicas)))
        for partition, entries in by_partition.items():
            hosts = set().union(*(replicas for __, replicas in entries))
            for segment, replicas in entries:
                assert replicas == hosts, (partition, segment)


class TestCacheFreshness:
    def test_masking_committed_rows_invalidates_cached_results(self):
        cluster = make_cluster(flush_rows=4)
        cluster.ingest(TOPIC, [row(m, m * 10) for m in (1, 2, 3, 4)],
                       key_column="memberId")
        cluster.drain_realtime()
        pql = "SELECT sum(views) FROM profiles"
        first = cluster.execute(pql)
        again = cluster.execute(pql)
        assert again.cache_hit
        assert first.rows == again.rows == [(100.0,)]
        # A newer version of key 1 arrives and masks a row inside the
        # *already committed* segment the cached entry was computed
        # over; the upsert-state epoch must fence that entry off.
        cluster.ingest(TOPIC, [row(1, 1000)], key_column="memberId")
        cluster.drain_realtime()
        fresh = cluster.execute(pql)
        assert fresh.rows == [(1090.0,)]
        assert cluster.execute(pql + " OPTION(skipCache=true)").rows == \
            [(1090.0,)]
        published = sum(server.metrics.count("upsert_invalidations")
                        for server in cluster.servers)
        assert published > 0
