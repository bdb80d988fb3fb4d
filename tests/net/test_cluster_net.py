"""The cluster over the transport: serialization boundary, overload
rejection, direct-call parity, and the clock-discipline rule."""

import json
import re
from pathlib import Path

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.cluster.tenant import TenantQuotaManager
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.net import HedgePolicy, ServiceModel, Shared, SimClock, Transport, codec
from repro.pql.ast_nodes import Query
from repro.workloads import impressions, wvmp

pytestmark = pytest.mark.net


@pytest.fixture
def schema():
    return Schema("events", [dimension("c"), metric("v", DataType.LONG)])


class _RetainingServer:
    """Wraps a server, keeping a reference to every result it returns —
    the 'server reuses its buffers' scenario the codec must isolate."""

    def __init__(self, server):
        self._server = server
        self.returned = []

    def __getattr__(self, name):
        return getattr(self._server, name)

    def execute(self, *args, **kwargs):
        result = self._server.execute(*args, **kwargs)
        self.returned.append(result)
        return result


class TestSerializationBoundary:
    def test_server_mutation_cannot_corrupt_broker_results(self, schema):
        """Regression: before the transport, broker and server shared
        object references; a server mutating a result it had already
        returned would silently corrupt the broker's merged (and
        cached) response."""
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records(
            "events", [{"c": f"c{i % 4}", "v": i} for i in range(40)]
        )
        wrapper = _RetainingServer(cluster.server("server-0"))
        cluster.net.deregister("server-0")
        cluster.net.register("server-0", wrapper)

        pql = "SELECT c, sum(v) FROM events GROUP BY c"
        first = cluster.execute(pql)
        baseline = json.dumps(first.rows, default=str)
        assert wrapper.returned

        # The server trashes every result object it ever returned.
        for result in wrapper.returned:
            if result.group_by is not None:
                for states in result.group_by.states:
                    states[:] = 10 ** 9
                for keys in result.group_by.keys:
                    keys[:] = "poison"
            result.server = "poisoned"

        # Neither the already-returned response nor a cache hit nor a
        # fresh scatter sees the mutation.
        assert json.dumps(first.rows, default=str) == baseline
        cached = cluster.execute(pql)
        assert json.dumps(cached.rows, default=str) == baseline
        fresh = cluster.execute(pql + " OPTION(skipCache=true)")
        assert json.dumps(fresh.rows, default=str) == baseline

    def test_broker_mutation_cannot_corrupt_server_state(self, schema):
        """The boundary cuts both ways: the query object a server
        receives is a fresh copy, so whatever the server does to it
        cannot leak back into broker state."""
        cluster = PinotCluster(num_servers=1)
        cluster.create_table(TableConfig.offline("events", schema))
        cluster.upload_records("events", [{"c": "x", "v": 1}] * 10)
        first = cluster.execute("SELECT count(*) FROM events")
        assert first.rows[0][0] == 10
        again = cluster.execute("SELECT count(*) FROM events")
        assert again.rows == first.rows


class _PoisoningServer:
    """Wraps a server: keeps the query each ``execute`` decoded, then
    writes its own name into that query's options."""

    def __init__(self, server, seen):
        self._server = server
        self._seen = seen

    def __getattr__(self, name):
        return getattr(self._server, name)

    def execute(self, query, *args, **kwargs):
        result = self._server.execute(query, *args, **kwargs)
        self._seen.append((self._server.instance_id, query))
        query.options["poison"] = self._server.instance_id
        return result


class TestSharedRequestTree:
    """A leg's ``Query`` is encoded once for all its sub-requests, and
    every server still decodes a copy of its own."""

    @pytest.fixture
    def cluster(self):
        schema = Schema("events", [
            dimension("country"), metric("views", DataType.LONG),
            time_column("day", DataType.INT),
        ])
        cluster = PinotCluster(num_servers=3, hedging=HedgePolicy())
        cluster.create_table(TableConfig.offline("events", schema,
                                                 replication=3))
        cluster.upload_records(
            "events", [{"country": "us", "views": 1, "day": day}
                       for day in (17000, 17001, 17002) for __ in range(10)],
            rows_per_segment=10)
        cluster.execute("SELECT count(*) FROM events")  # registers Query
        return cluster

    def test_one_query_encode_per_leg_through_hedges_and_retries(
            self, cluster, monkeypatch):
        encodes = []
        encoder = codec._ENCODERS[Query]
        monkeypatch.setitem(codec._ENCODERS, Query, lambda query, blobs: (
            encodes.append(query), encoder(query, blobs))[1])
        # Two of three replicas fail every sub-request: the failed
        # primaries are hedged at once, and what the hedges cannot
        # repair the gather loop retries on the survivor.
        cluster.server("server-0").faults.error_rate = 1.0
        cluster.server("server-1").faults.error_rate = 1.0
        metrics = cluster.brokers[0].metrics
        before = {name: metrics.count(name) for name in (
            "scatter_requests", "hedge_requests", "retries")}
        response = cluster.execute(
            "SELECT count(*) FROM events OPTION(skipCache=true)")
        sent = {name: metrics.count(name) - count
                for name, count in before.items()}
        assert response.rows == [(30,)] and not response.partial
        assert sent["hedge_requests"] >= 1 and sent["retries"] >= 1
        assert sent["scatter_requests"] >= 3
        assert len(encodes) == 1

    def test_a_server_mutating_its_query_touches_no_other_copy(
            self, cluster, monkeypatch):
        seen, shipped = [], []
        for instance in ("server-0", "server-1", "server-2"):
            server = cluster.server(instance)
            cluster.net.deregister(instance)
            cluster.net.register(instance, _PoisoningServer(server, seen))
        request = cluster.net.request

        def recording(src, dst, method, *args, **kwargs):
            if method == "execute":
                shipped.append(args[0])
            return request(src, dst, method, *args, **kwargs)

        monkeypatch.setattr(cluster.net, "request", recording)
        response = cluster.execute(
            "SELECT count(*) FROM events OPTION(skipCache=true)")
        assert response.rows == [(30,)] and not response.partial
        assert len(seen) >= 2
        assert len({id(query) for __, query in seen}) == len(seen)
        # Each server saw only its own write: the one it made after
        # the servers before it had already poisoned theirs.
        for instance, query in seen:
            assert query.options == {"skipCache": True,
                                     "poison": instance}
        # The broker's copy, which every sub-request shipped, is clean.
        assert {id(node) for node in shipped} == {id(shipped[0])}
        assert isinstance(shipped[0], Shared)
        assert shipped[0].value.options == {"skipCache": True}


class TestOverloadRejection:
    def _burst_cluster(self, schema, queue_capacity=1):
        quotas = TenantQuotaManager(default_capacity=100.0,
                                    default_refill_rate=0.001)
        cluster = PinotCluster(num_servers=1, quotas=quotas,
                               clock=SimClock(auto_advance=False))
        cluster.create_table(TableConfig.offline("events", schema,
                                                 tenant="burst"))
        cluster.upload_records(
            "events", [{"c": "x", "v": i} for i in range(50)]
        )
        server = cluster.server("server-0")
        cluster.net.deregister("server-0")
        cluster.net.register("server-0", server,
                             queue_capacity=queue_capacity,
                             service=ServiceModel(base_s=0.2))
        return cluster

    def test_burst_overflow_becomes_partial_with_detail(self, schema):
        cluster = self._burst_cluster(schema, queue_capacity=1)
        t0 = cluster.clock.now()
        responses = [
            cluster.execute("SELECT count(*) FROM events"
                            " OPTION(skipCache=true)", at=t0, now=t0)
            for _ in range(4)
        ]
        complete = [r for r in responses if not r.partial]
        rejected = [r for r in responses if r.partial]
        # capacity=1: exactly one query fit the inbound queue.
        assert len(complete) == 1
        assert len(rejected) == 3
        assert complete[0].rows[0][0] == 50
        for response in rejected:
            detail = " ".join(response.exceptions)
            assert "server-0" in detail or "'server-0'" in detail
            assert "inbound queue full" in detail
        metrics = cluster.brokers[0].metrics
        assert metrics.count("server_busy_rejections") >= 3
        # One server, so there was no replica to fail over to.
        assert metrics.count("segments_unroutable") > 0

    def test_max_queue_depth_is_a_gauge(self, schema):
        """The deepest inbound queue met is a maximum, not a sum: it
        stays at its high-water mark when later queries meet a shallower
        queue, and is exported as a gauge, never as a counter."""
        cluster = self._burst_cluster(schema, queue_capacity=4)
        pql = "SELECT count(*) FROM events OPTION(skipCache=true)"
        t0 = cluster.clock.now()
        for _ in range(3):
            cluster.execute(pql, at=t0, now=t0)
        metrics = cluster.brokers[0].metrics
        assert metrics.gauge_value("max_queue_depth") == 2
        cluster.clock.advance(5.0)  # the burst drains
        cluster.execute(pql, now=t0)
        assert metrics.gauge_value("max_queue_depth") == 2
        assert "max_queue_depth" not in metrics.counters
        text = cluster.metrics_registry.export_text()
        assert ('repro_gauge{component="broker",instance="broker-0",'
                'name="max_queue_depth"} 2') in text
        assert not any("max_queue_depth" in line
                       for line in text.splitlines()
                       if line.startswith("repro_counter"))

    def test_rejected_queries_charge_admission_only(self, schema):
        """§4.5 + backpressure: a query the server refused did no work,
        so the tenant pays the admission token and nothing else; the
        executed query is also charged for its 0.2s of service time."""
        cluster = self._burst_cluster(schema, queue_capacity=1)
        t0 = cluster.clock.now()
        for _ in range(4):
            cluster.execute("SELECT count(*) FROM events"
                            " OPTION(skipCache=true)", at=t0, now=t0)
        bucket = cluster.quotas.bucket("burst")
        spent = 100.0 - bucket.tokens
        # 4 admission tokens + ~2 tokens (0.2s x 10/s) for the one
        # executed query. Were rejected queries charged for the
        # winner's virtual time too, this would be ~12.
        assert 5.5 <= spent <= 8.0


class TestDirectCallParity:
    def _run(self, workload, table, transport=None, queries=25):
        cluster = PinotCluster(num_servers=2, seed=11,
                               clock=None if transport else
                               SimClock(auto_advance=False),
                               transport=transport)
        cluster.create_table(TableConfig.offline(
            table, workload.schema(), replication=2))
        cluster.upload_records(table,
                               workload.generate_records(4000, seed=2),
                               rows_per_segment=500)
        out = []
        for pql in workload.generate_queries(queries, seed=9):
            response = cluster.execute(pql + " OPTION(skipCache=true)")
            assert not response.partial
            out.append(json.dumps(response.rows, default=str))
        return out

    @pytest.mark.parametrize("workload,table", [
        (wvmp, "wvmp"), (impressions, "impressions"),
    ])
    def test_codec_transport_matches_direct_calls(self, workload, table):
        """The acceptance bar: the full serialization boundary changes
        no query result, byte for byte."""
        direct = Transport(SimClock(auto_advance=False), seed=11,
                           codec=False)
        assert (self._run(workload, table) ==
                self._run(workload, table, transport=direct))


class TestClockDiscipline:
    FORBIDDEN = re.compile(r"\btime\.(monotonic|time)\(")

    def test_only_the_sim_clock_touches_wall_time(self):
        """The CI grep, enforced from inside the suite too: nothing in
        src/repro reads wall-clock time except repro/net/clock.py.
        (time.perf_counter for *measuring* real work is allowed.)"""
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert root.is_dir()
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root).as_posix() == "net/clock.py":
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if self.FORBIDDEN.search(line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert not offenders, "\n".join(offenders)
