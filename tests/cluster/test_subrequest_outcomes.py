"""Every outcome of one scatter sub-request (§3.3.3 step 7), as a table.

One 30-row segment on three replicas, so each query sends exactly one
primary sub-request. Its replicas play three roles, learned from the
seeded routing: ``P`` the primary, ``H`` the replica a hedge or the
first gather retry is sent to, ``T`` the third. Each case sets faults on
roles and pins everything the broker derives from the outcome: the
results the merge sees, the response's accounting fields, the recovered
and give-up texts, the broker counters and the rpc spans' hedge marks.

Two reachable cases live elsewhere: a failed primary whose hedge also
fails and whose retry succeeds (``TestHedgeLoserExclusion``), and retry
exhaustion without hedging (``TestGiveUpAttribution``), both in
``test_resilience.py``.
"""

from dataclasses import dataclass

import pytest

import repro.cluster.broker as broker_module
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.net import HedgePolicy, LinkModel, SimClock

from tests.cluster import test_resilience as resilience

#: The resilience tests' schema fixture and record maker.
schema = resilience.schema
records = resilience.records

QUERY = "SELECT count(*) FROM events OPTION (trace=true, skipCache=true)"
FLAKY = "injected flaky failure"
#: One-way link latencies: a straggler's round trip (0.2 s) is far past
#: the 25 ms initial hedge budget; a slower hedge (0.6 s) loses to it.
SLOW_S, SLOWER_S = 0.1, 0.3
COUNTERS = ("hedges", "hedge_wins", "hedges_cancelled", "failovers")


def build(schema, hedging):
    cluster = PinotCluster(
        num_servers=3, clock=SimClock(auto_advance=False),
        hedging=HedgePolicy() if hedging else None)
    cluster.create_table(TableConfig.offline("events", schema,
                                             replication=3))
    cluster.upload_records("events", records([17000, 17001, 17002]),
                           rows_per_segment=30)
    return cluster


@pytest.fixture
def roles(schema):
    """``{"P": primary, "H": first alternate, "T": third replica}``."""
    cluster = build(schema, hedging=False)
    cluster.execute(QUERY)
    trace = cluster.brokers[0].tracer.finished[-1]
    primary, = [s.attributes["server"] for s in trace.spans
                if s.name == "rpc"]
    cluster = build(schema, hedging=False)
    cluster.server(primary).faults.error_rate = 1.0
    response = cluster.execute(QUERY)
    recovered, = response.recovered_exceptions
    alternate = recovered.split("recovered on ")[1].rstrip(")")
    third, = {"server-0", "server-1", "server-2"} - {primary, alternate}
    return {"P": primary, "H": alternate, "T": third}


@dataclass(frozen=True)
class Case:
    hedging: bool
    #: role -> "fail" (every query errors), "slow" or "slower" (link).
    faults: dict[str, str]
    #: (role, answered) per server result the merge receives.
    merged: list[tuple[str, bool]]
    responded: int
    retries: int
    failed_over: int
    #: Format strings over the roles.
    recovered: list[str]
    exceptions: list[str]
    counters: tuple[int, int, int, int]
    #: role -> (status, hedge marks) of its rpc span.
    spans: dict[str, tuple[str, frozenset]]


NONE = frozenset()
WINNER = frozenset({"hedge_winner"})
LOSER = frozenset({"hedge_loser"})

#: (primary, hedge, retry) -> expected outcome.
CASES = {
    ("ok", "off", "none"): Case(
        hedging=True, faults={},
        merged=[("P", True)], responded=1, retries=0, failed_over=0,
        recovered=[], exceptions=[], counters=(0, 0, 0, 0),
        spans={"P": ("ok", NONE)}),
    ("straggler", "off", "none"): Case(
        hedging=False, faults={"P": "slow"},
        merged=[("P", True)], responded=1, retries=0, failed_over=0,
        recovered=[], exceptions=[], counters=(0, 0, 0, 0),
        spans={"P": ("ok", NONE)}),
    ("straggler", "wins", "none"): Case(
        hedging=True, faults={"P": "slow"},
        merged=[("H", True)], responded=1, retries=0, failed_over=0,
        recovered=[], exceptions=[], counters=(1, 1, 1, 0),
        spans={"P": ("cancelled", LOSER), "H": ("ok", WINNER)}),
    ("straggler", "loses", "none"): Case(
        hedging=True, faults={"P": "slow", "H": "slower"},
        merged=[("P", True)], responded=1, retries=0, failed_over=0,
        recovered=[], exceptions=[], counters=(1, 0, 1, 0),
        spans={"P": ("ok", NONE), "H": ("cancelled", LOSER)}),
    ("straggler", "fails", "none"): Case(
        hedging=True, faults={"P": "slow", "H": "fail"},
        merged=[("P", True)], responded=1, retries=0, failed_over=0,
        recovered=[], exceptions=[], counters=(1, 0, 1, 0),
        spans={"P": ("ok", NONE), "H": ("cancelled", LOSER)}),
    ("failed", "off", "ok"): Case(
        hedging=False, faults={"P": "fail"},
        merged=[("H", True)], responded=1, retries=1, failed_over=1,
        recovered=["{P}: %s (recovered on {H})" % FLAKY], exceptions=[],
        counters=(0, 0, 0, 1),
        spans={"P": ("error", NONE), "H": ("ok", NONE)}),
    ("failed", "wins", "none"): Case(
        hedging=True, faults={"P": "fail"},
        merged=[("H", True)], responded=1, retries=0, failed_over=1,
        recovered=["{P}: %s (recovered on {H} via hedge)" % FLAKY],
        exceptions=[], counters=(1, 1, 0, 0),
        spans={"P": ("error", LOSER), "H": ("ok", WINNER)}),
    ("failed", "fails", "fails"): Case(
        hedging=True, faults={"P": "fail", "H": "fail", "T": "fail"},
        merged=[("T", False)], responded=0, retries=1, failed_over=0,
        recovered=[],
        exceptions=["{T}: %s [gave up: retry attempts exhausted (3); "
                    "tried {tried}]" % FLAKY],
        counters=(1, 0, 0, 0),
        spans={"P": ("error", NONE), "H": ("error", NONE),
               "T": ("error", NONE)}),
}


@pytest.mark.parametrize("key", list(CASES), ids="-".join)
def test_subrequest_outcome(schema, roles, monkeypatch, key):
    case = CASES[key]
    cluster = build(schema, case.hedging)
    for role, fault in case.faults.items():
        server = roles[role]
        if fault == "fail":
            cluster.server(server).faults.error_rate = 1.0
        else:
            latency = SLOW_S if fault == "slow" else SLOWER_S
            cluster.net.set_link("broker-0", server,
                                 LinkModel(latency_s=latency))
    merged = []
    reduce = broker_module.reduce_server_results

    def spy(query, results, *args, **kwargs):
        merged.extend((r.server, r.error is None) for r in results)
        return reduce(query, results, *args, **kwargs)

    monkeypatch.setattr(broker_module, "reduce_server_results", spy)
    response = cluster.execute(QUERY)

    names = dict(roles, tried=sorted(roles.values()))
    assert merged == [(roles[role], ok) for role, ok in case.merged]
    assert response.num_servers_responded == case.responded
    assert response.num_retries == case.retries
    assert response.num_segments_failed_over == case.failed_over
    assert response.recovered_exceptions == [
        text.format(**names) for text in case.recovered]
    assert response.exceptions == [
        text.format(**names) for text in case.exceptions]
    metrics = cluster.brokers[0].metrics
    assert tuple(metrics.count(name) for name in COUNTERS) == case.counters
    trace = cluster.brokers[0].tracer.finished[-1]
    rpcs = {s.attributes["server"]: s for s in trace.spans
            if s.name == "rpc"}
    assert set(rpcs) == {roles[role] for role in case.spans}
    for role, (status, marks) in case.spans.items():
        span = rpcs[roles[role]]
        assert span.status == status
        assert {mark for mark in ("hedge_winner", "hedge_loser")
                if span.attributes.get(mark)} == marks
