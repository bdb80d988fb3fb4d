"""Tail latency under one slow replica: hedging off vs on.

The tail-amplification scenario from the resilience follow-up work:
a WVMP table replicated across two servers, with the broker's link to
one of them degraded to 250 ms each way (a sick NIC / cross-AZ hop the
cluster view knows nothing about). Any scatter that touches the slow
replica rides its latency, so p99 collapses to the straggler.

With hedging on, the broker re-issues a sub-request to the other
replica once it exceeds the latency-percentile budget, and the first
response wins — p99 drops to roughly the hedge budget. The acceptance
bar from the issue: hedging must cut p99 by at least 2x.

Everything runs on a manual virtual clock (``repro.net.SimClock``), so
the 250 ms straggler costs no real time and the measured distribution
is exactly reproducible.
"""

import numpy as np
import pytest

from benchmarks._common import write_report
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.net import HedgePolicy, LinkModel, SimClock
from repro.segment.builder import SegmentConfig
from repro.workloads import wvmp

NUM_ROWS = 8_000
NUM_QUERIES = 80
SLOW_LINK_S = 0.25
TABLE = "wvmp_OFFLINE"
SKIP = " OPTION(skipCache=true)"


def _build_cluster(hedging: HedgePolicy | None) -> PinotCluster:
    cluster = PinotCluster(num_servers=2, seed=7,
                           clock=SimClock(auto_advance=False),
                           hedging=hedging)
    cluster.create_table(TableConfig.offline(
        "wvmp", wvmp.schema(), replication=2,
        segment_config=SegmentConfig(sorted_column="vieweeId"),
    ))
    cluster.upload_records("wvmp", wvmp.generate_records(NUM_ROWS, seed=3),
                           rows_per_segment=1_000)
    # Segments load lazily on first touch. This benchmark measures
    # hedging, not cold loads, so every replica is warmed first: left
    # cold, the first hedge to server-1 fetches all 8 segments inside
    # its sub-request, that one 225 ms sample is the p95 of the 8-sample
    # latency window, and the hedge budget sits at 1.5x it for the next
    # six queries (ROADMAP item D has the fabric side of this story).
    for server in cluster.servers:
        for name in server.hosted_segments(TABLE):
            server.segment(TABLE, name)
    # Degrade the broker's link to server-0 only; the cluster view (and
    # routing) still considers the replica healthy.
    cluster.net.set_link("broker-0", "server-0",
                         LinkModel(latency_s=SLOW_LINK_S))
    return cluster


def _latencies_ms(cluster: PinotCluster) -> np.ndarray:
    times = []
    for pql in wvmp.generate_queries(NUM_QUERIES, seed=5):
        response = cluster.execute(pql + SKIP)
        assert not response.is_partial
        times.append(response.time_used_ms)
    return np.asarray(times)


@pytest.fixture(scope="module")
def measured():
    off = _build_cluster(hedging=None)
    on = _build_cluster(hedging=HedgePolicy())
    off_ms = _latencies_ms(off)
    on_ms = _latencies_ms(on)
    return off, on, off_ms, on_ms


def test_tail_hedging_report(benchmark, measured):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    off, on, off_ms, on_ms = measured
    p99_off = float(np.percentile(off_ms, 99))
    p99_on = float(np.percentile(on_ms, 99))
    p50_off = float(np.percentile(off_ms, 50))
    p50_on = float(np.percentile(on_ms, 50))
    broker = on.brokers[0]
    hedges = broker.metrics.count("hedges")
    wins = broker.metrics.count("hedge_wins")
    budget_ms = broker._latency.budget_s(TABLE) * 1e3

    lines = [
        f"slow replica: broker-0 -> server-0 at {SLOW_LINK_S * 1e3:.0f}ms "
        f"one-way ({NUM_QUERIES} queries)",
        f"hedging off: p50={p50_off:.1f}ms p99={p99_off:.1f}ms",
        f"hedging on:  p50={p50_on:.1f}ms p99={p99_on:.1f}ms",
        f"p99 cut: {p99_off / p99_on:.1f}x "
        f"(hedges={hedges:.0f} wins={wins:.0f}, "
        f"hedge budget after the run {budget_ms:.1f}ms)",
    ]
    write_report("tail_hedging", "\n".join(lines))

    assert hedges > 0 and wins > 0
    # Only winners' flight times feed the window, so with warm replicas
    # the budget must settle near a healthy sub-request, far below the
    # straggler's 500 ms round trip.
    assert budget_ms < SLOW_LINK_S * 1e3 / 5
    # The issue's acceptance bar: hedging cuts p99 by at least 2x.
    assert p99_off >= 2.0 * p99_on
