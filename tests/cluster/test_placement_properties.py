"""Properties of the controller's one placement rule.

Random sequences of segment uploads, ingest + drain (which rolls
consuming segments over), blank servers joining, servers dying (at least
``replication`` stay live) and rebalances run against a hybrid table and
an upsert table. After every rebalance + converge:

* each segment's replicas are exactly ``replication`` live servers, all
  in the segment's target state — ONLINE once pushed or committed,
  CONSUMING while it still consumes;
* answers equal a ledger of what was produced.

After every op, all segments of an upsert partition share one replica
set (the complete-replica invariant, docs/UPSERT.md).
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.pinot import PinotCluster
from repro.cluster.server import parse_realtime_segment_name
from repro.cluster.table import StreamConfig, TableConfig, read_realtime_record
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.helix.statemachine import SegmentState
from repro.upsert import UpsertConfig

REPLICATION = 2
OFFLINE_DAYS = (17000, 17001)  # hybrid time boundary: 17000
REALTIME_DAY = 17002
MEMBERS = 6  # upsert key space: most ingests overwrite a key
TABLES = ("events_OFFLINE", "events_REALTIME", "profiles_REALTIME")


def schema(name):
    return Schema(name, [
        dimension("memberId", DataType.LONG),
        metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])


class Run:
    """One cluster plus the ledger of everything produced into it."""

    def __init__(self):
        cluster = self.cluster = PinotCluster(num_servers=3)
        cluster.create_kafka_topic("events-rt", 2)
        cluster.create_kafka_topic("profiles-rt", 2)
        cluster.create_table(TableConfig.offline(
            "events", schema("events"), replication=REPLICATION))
        cluster.create_table(TableConfig.realtime(
            "events", schema("events"),
            StreamConfig("events-rt", flush_threshold_rows=4,
                         records_per_poll=8),
            replication=REPLICATION))
        cluster.create_table(TableConfig.realtime(
            "profiles", schema("profiles"),
            StreamConfig("profiles-rt", flush_threshold_rows=3,
                         records_per_poll=8),
            replication=REPLICATION,
            upsert=UpsertConfig(mode="upsert", key_columns=("memberId",))))
        self.produced = 0
        self.offline: list[dict] = []
        self.realtime: list[dict] = []
        self.latest: dict[int, float] = {}

    def _rows(self, n, days):
        rows = [{"memberId": (self.produced + i) % MEMBERS,
                 "views": self.produced + i, "day": days[i % len(days)]}
                for i in range(n)]
        self.produced += n
        return rows

    # -- ops ------------------------------------------------------------------

    def upload(self):
        rows = self._rows(4, OFFLINE_DAYS)
        self.cluster.upload_records("events", rows, rows_per_segment=4)
        self.offline += rows

    def ingest(self, n):
        rows = self._rows(n, (REALTIME_DAY,))
        self.cluster.ingest("events-rt", rows)
        self.realtime += rows
        rows = self._rows(n, (REALTIME_DAY,))
        self.cluster.ingest("profiles-rt", rows, key_column="memberId")
        self.latest.update({r["memberId"]: float(r["views"]) for r in rows})
        self.cluster.drain_realtime()

    def add_server(self):
        self.cluster.add_server()

    def kill_server(self, pick):
        live = sorted(server.instance_id for server in self.cluster.servers)
        if len(live) > REPLICATION:
            self.cluster.kill_server(live[pick % len(live)])

    def rebalance(self):
        for table in TABLES:
            self.cluster.leader_controller().rebalance_table(table)
            self.cluster.helix.converge(table)
            self.check_placement(table)
        self.cluster.drain_realtime()
        self.check_answers()

    # -- properties -----------------------------------------------------------

    def check_placement(self, table):
        helix = self.cluster.helix
        live = {server.instance_id for server in self.cluster.servers}
        view = helix.external_view(table)
        for segment in helix.ideal_state(table):
            meta = read_realtime_record(helix, table, segment) or {}
            state = (SegmentState.CONSUMING.value
                     if meta.get("status") == "IN_PROGRESS"
                     else SegmentState.ONLINE.value)
            replicas = view.get(segment, {})
            assert set(replicas) <= live, (table, segment, replicas)
            assert list(replicas.values()) == [state] * REPLICATION, (
                table, segment, replicas)

    def check_chains(self):
        chains: dict[int, set[frozenset]] = {}
        for segment, replicas in self.cluster.helix.ideal_state(
                "profiles_REALTIME").items():
            partition = parse_realtime_segment_name(segment)[1]
            chains.setdefault(partition, set()).add(frozenset(replicas))
        for partition, replica_sets in chains.items():
            assert len(replica_sets) == 1, (partition, replica_sets)

    def check_answers(self):
        boundary = max(OFFLINE_DAYS) - 1
        visible = ([r for r in self.offline if r["day"] <= boundary]
                   + self.realtime)
        assert self.query("SELECT count(*), sum(views) FROM events") == [
            (len(visible), float(sum(r["views"] for r in visible)))]
        rows = self.query("SELECT sum(views) FROM profiles "
                          "GROUP BY memberId TOP 1000")
        assert dict(rows) == self.latest

    def query(self, pql):
        response = self.cluster.execute(pql + " OPTION(skipCache=true)")
        assert not response.is_partial, pql
        return response.rows


OPS = st.lists(
    st.one_of(
        st.just(("upload",)),
        st.tuples(st.just("ingest"), st.integers(1, 9)),
        st.just(("add_server",)),
        st.tuples(st.just("kill_server"), st.integers(0, 7)),
        st.just(("rebalance",)),
    ),
    max_size=12,
)

# Both holders of an upsert partition die while its chain holds a
# committed and a consuming segment; the rebalance must re-seat the chain.
WEDGE = [("ingest", 6), ("add_server",), ("kill_server", 0),
         ("kill_server", 0), ("rebalance",)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
@example(WEDGE)
def test_random_ops_keep_placement_properties(ops):
    run = Run()
    run.upload()
    for kind, *args in ops + [("rebalance",)]:
        getattr(run, kind)(*args)
        run.check_chains()
