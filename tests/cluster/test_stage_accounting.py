"""The broker's stage-accounting contract (§3.3.3).

Every query path records each stage exactly once per occurrence in
three places that must agree: the response's ``stage_times_ms``, the
broker's ``metrics.stages`` counters, and (when traced) the span tree.
The per-leg rules are the ones a refactor of the query path is most
likely to bend: a hybrid query runs route/scatter/gather/network once
per physical leg but cache/merge once per logical query, and each leg
carries its own hedge cap.
"""

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import RoutingError
from repro.net import HedgePolicy, LinkModel, SimClock

PER_LEG = ("route", "scatter", "gather", "network")
SKIP = " OPTION(skipCache=true)"


@pytest.fixture
def schema():
    return Schema("events", [
        dimension("country"), metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])


def records(days, per_day=10):
    return [{"country": "us", "views": 1, "day": day}
            for day in days for __ in range(per_day)]


def offline_cluster(schema, **kwargs):
    cluster = PinotCluster(num_servers=2, **kwargs)
    cluster.create_table(TableConfig.offline("events", schema,
                                             replication=2))
    cluster.upload_records("events", records([17000, 17001]),
                           rows_per_segment=10)
    return cluster


def hybrid_cluster(schema, **kwargs):
    cluster = PinotCluster(num_servers=2, **kwargs)
    cluster.create_kafka_topic("events-topic", 2)
    cluster.create_table(TableConfig.offline("events", schema,
                                             replication=2))
    cluster.create_table(TableConfig.realtime(
        "events", schema,
        StreamConfig("events-topic", flush_threshold_rows=10_000),
        replication=2,
    ))
    cluster.upload_records("events", records([17000, 17001, 17002]),
                           rows_per_segment=10)
    cluster.ingest("events-topic", records([17002, 17003, 17004]))
    cluster.drain_realtime()
    return cluster


def fail_routing(cluster):
    broker = cluster.brokers[0]

    def route(query):
        raise RoutingError("no routing table")

    broker._routed("events_OFFLINE").strategy.route = route


def stage_counts(cluster):
    stages = cluster.brokers[0].metrics.stages
    return {name: timing.count for name, timing in stages.items()}


#: name -> (cluster builder, fault to inject, queries, expected
#: stage_times_ms keys of the last response, expected per-stage metric
#: counts over all the queries).
CASES = {
    "offline": (
        offline_cluster, None, ["SELECT count(*) FROM events"],
        {"cache", *PER_LEG, "merge"},
        {"cache": 1, "route": 1, "scatter": 1, "gather": 1, "network": 1,
         "merge": 1},
    ),
    "skip_cache": (
        offline_cluster, None, ["SELECT count(*) FROM events" + SKIP],
        {*PER_LEG, "merge"},
        {"route": 1, "scatter": 1, "gather": 1, "network": 1, "merge": 1},
    ),
    "hybrid": (
        hybrid_cluster, None, ["SELECT count(*) FROM events"],
        {"cache", *PER_LEG, "merge"},
        {"cache": 1, "route": 2, "scatter": 2, "gather": 2, "network": 2,
         "merge": 1},
    ),
    "cache_hit": (
        offline_cluster, None, ["SELECT count(*) FROM events"] * 2,
        {"cache"},
        {"cache": 2, "route": 1, "scatter": 1, "gather": 1, "network": 1,
         "merge": 1},
    ),
    "routing_error": (
        offline_cluster, fail_routing,
        ["SELECT count(*) FROM events" + SKIP],
        {"route", "merge"},
        {"route": 1, "merge": 1},
    ),
    "failover": (
        offline_cluster, lambda c: c.crash_server("server-0"),
        ["SELECT count(*) FROM events" + SKIP],
        {*PER_LEG, "merge"},
        {"route": 1, "scatter": 1, "gather": 1, "network": 1, "merge": 1},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stage_keys_and_counts(schema, case):
    build, inject, queries, keys, counts = CASES[case]
    cluster = build(schema)
    if inject is not None:
        inject(cluster)
    for pql in queries:
        response = cluster.execute(pql)
    assert set(response.stage_times_ms) == keys
    assert stage_counts(cluster) == counts
    assert all(ms >= 0.0 for ms in response.stage_times_ms.values())


def test_cache_hit_keeps_side_effects(schema):
    cluster = offline_cluster(schema)
    broker = cluster.brokers[0]
    pql = "SELECT count(*) FROM events WHERE country = 'us'"
    first = cluster.execute(pql)
    logged = len(broker.query_log)
    second = cluster.execute(pql + " OPTION(trace=true)")
    assert second.cache_hit and second.rows == first.rows
    assert broker.queries_served == 2
    assert len(broker.query_log) == 2 * logged > 0
    # The cached entry itself never carries a trace or the hit's stages.
    third = cluster.execute(pql)
    assert third.cache_hit and third.trace is None
    assert set(third.stage_times_ms) == {"cache"}


def test_hybrid_network_stage_sums_both_legs(schema):
    clock = SimClock(auto_advance=False)
    cluster = hybrid_cluster(schema, clock=clock)
    for server in ("server-0", "server-1"):
        cluster.net.set_link("broker-0", server,
                             LinkModel(latency_s=0.010))
    response = cluster.execute("SELECT count(*) FROM events" + SKIP)
    timing = cluster.brokers[0].metrics.stages["network"]
    assert timing.count == 2
    assert response.stage_times_ms["network"] == pytest.approx(
        timing.total_ms)
    assert timing.max_ms < timing.total_ms  # two records, not one sum


def test_each_hybrid_leg_has_its_own_hedge_cap(schema):
    """Every sub-request straggles past the hedge budget; the cap of one
    hedge per physical query lets each leg hedge once."""
    cluster = hybrid_cluster(
        schema, clock=SimClock(auto_advance=False),
        hedging=HedgePolicy(max_hedges_per_query=1),
    )
    for server in ("server-0", "server-1"):
        cluster.net.set_link("broker-0", server,
                             LinkModel(latency_s=0.25))
    response = cluster.execute("SELECT count(*) FROM events" + SKIP)
    assert response.rows[0][0] == 50 and not response.is_partial
    assert cluster.brokers[0].metrics.count("hedges") == 2


def spans_named(trace, name):
    return [span for span in trace.spans if span.name == name]


class TestTracedSpans:
    def run(self, schema, pql, at=None, inject=None, build=offline_cluster,
            skip=False):
        cluster = build(schema, clock=SimClock(auto_advance=False))
        cluster.clock.advance(5.0)
        if inject is not None:
            inject(cluster)
        response = cluster.execute(
            pql + " OPTION(trace=true, skipCache=%s)" % str(skip).lower(),
            at=at)
        return response, cluster.brokers[0].tracer.finished[-1]

    def test_stage_spans_hang_off_root_in_creation_order(self, schema):
        at = 7.5
        response, trace = self.run(schema, "SELECT count(*) FROM events",
                                   at=at)
        root = trace.root
        assert root.start_s == at
        stage_spans = [s for s in trace.spans
                       if s.parent_id == root.span_id]
        assert [s.name for s in stage_spans] == [
            "cache", "route", "scatter", "merge"]
        # No failures: the gather stage is timed but leaves no span.
        assert "gather" in response.stage_times_ms
        assert not spans_named(trace, "gather")
        # The scatter span starts at the pinned departure instant, not
        # at the broker clock the stage time is measured on.
        scatter, = spans_named(trace, "scatter")
        assert scatter.start_s == at
        route, = spans_named(trace, "route")
        assert 5.0 <= route.start_s < at
        rpcs = spans_named(trace, "rpc")
        assert rpcs and all(r.parent_id == scatter.span_id for r in rpcs)
        assert all(r.start_s == at for r in rpcs)
        # Ids are handed out in creation order; the server's execute id
        # is reserved before the rpc span that encloses it.
        ids = [int(s.span_id.rsplit(".", 1)[1]) for s in stage_spans]
        assert ids == sorted(ids)
        for rpc in rpcs:
            execute, = [s for s in spans_named(trace, "execute")
                        if s.parent_id == rpc.span_id]
            assert (int(execute.span_id.rsplit(".", 1)[1])
                    < int(rpc.span_id.rsplit(".", 1)[1]))
            segments = [s for s in spans_named(trace, "segment")
                        if s.parent_id == execute.span_id]
            assert segments

    def test_only_first_leg_departs_at(self, schema):
        at = 9.0
        __, trace = self.run(schema, "SELECT count(*) FROM events", at=at,
                             build=hybrid_cluster)
        first, second = spans_named(trace, "scatter")
        assert first.start_s == at
        assert second.start_s != at
        assert second.start_s >= first.end_s

    def test_failover_adds_a_gather_span(self, schema):
        response, trace = self.run(
            schema, "SELECT count(*) FROM events", skip=True,
            inject=lambda c: c.crash_server("server-0"))
        assert not response.is_partial
        gather, = spans_named(trace, "gather")
        assert gather.parent_id == trace.root.span_id
        assert gather.attributes["failed_subrequests"] >= 1
        retries = [s for s in spans_named(trace, "rpc")
                   if s.parent_id == gather.span_id]
        assert retries
        assert all("retry_attempt" in s.attributes for s in retries)

    def test_routing_error_marks_the_route_span(self, schema):
        response, trace = self.run(
            schema, "SELECT count(*) FROM events", skip=True,
            inject=fail_routing)
        assert response.is_partial
        route, = spans_named(trace, "route")
        assert route.status == "error"
        assert route.attributes["error_type"] == "RoutingError"
        assert not spans_named(trace, "scatter")
