"""Broker result-cache: warm-hit latency and hit/prune ratios.

A repeated-query load against an offline WVMP table, run twice: once
with the cache subsystem on (default) and once with
``OPTION(skipCache=true)`` (no result cache, no server-side pruning, no
hot columns). The acceptance bar from the issue: warm cached p50 must
be at least 5x better than the skipCache baseline, with zero result
differences (covered by tests/cache/).

The measured service times also feed the open-loop load simulator so
the report shows what the cache buys in sustainable QPS, not just in
single-query latency.
"""

import time

import numpy as np
import pytest

from benchmarks._common import write_report
from repro.bench import (
    LoadSimConfig,
    qps_sweep,
    render_sweep,
    saturation_qps,
)
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.segment.builder import SegmentConfig
from repro.workloads import wvmp

NUM_ROWS = 32_000
NUM_QUERIES = 20
REPEATS = 3
SKIP = " OPTION(skipCache=true)"
QPS_GRID = [int(2_000 * 2**k) for k in range(9)]
SIM = LoadSimConfig(num_servers=2, duration_s=1.0, warmup_s=0.2,
                    overhead_s=0.00003)


def _times_ms(broker, queries, suffix):
    times = []
    for __ in range(REPEATS):
        for pql in queries:
            started = time.perf_counter()
            broker.execute(pql + suffix)
            times.append((time.perf_counter() - started) * 1000.0)
    return np.array(times)


@pytest.fixture(scope="module")
def measured():
    cluster = PinotCluster(num_servers=2)
    cluster.create_table(TableConfig.offline(
        "wvmp", wvmp.schema(),
        segment_config=SegmentConfig(sorted_column="vieweeId"),
    ))
    # Globally sorted upload: disjoint vieweeId ranges per segment, so
    # the server-side zone maps contribute on the miss path too.
    records = sorted(wvmp.generate_records(NUM_ROWS, seed=3),
                     key=lambda r: r["vieweeId"])
    cluster.upload_records("wvmp", records, rows_per_segment=4_000)
    broker = cluster.brokers[0]
    queries = list(wvmp.generate_queries(NUM_QUERIES, seed=5))

    skip_ms = _times_ms(broker, queries, SKIP)
    for pql in queries:  # one miss pass populates the cache
        broker.execute(pql)
    warm_ms = _times_ms(broker, queries, "")
    return cluster, broker, skip_ms, warm_ms


@pytest.mark.parametrize("variant", ["warm-cached", "skip-cache"])
def test_cache_service_time(benchmark, measured, variant):
    __, broker, __, __ = measured
    queries = list(wvmp.generate_queries(NUM_QUERIES, seed=5))
    suffix = "" if variant == "warm-cached" else SKIP
    benchmark(lambda: [broker.execute(pql + suffix) for pql in queries])


def test_cache_hit_ratio_report(benchmark, measured):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cluster, broker, skip_ms, warm_ms = measured
    p50_skip = float(np.percentile(skip_ms, 50))
    p50_warm = float(np.percentile(warm_ms, 50))
    speedup = p50_skip / p50_warm

    hits = broker.metrics.count("cache_hits")
    misses = broker.metrics.count("cache_misses")
    hit_ratio = hits / (hits + misses)
    scanned = sum(s.metrics.count("segments_scanned")
                  for s in cluster.servers)
    pruned = sum(s.metrics.count("segments_pruned")
                 for s in cluster.servers)
    prune_ratio = pruned / (pruned + scanned)

    # A warm hit is broker-local (fanout 1); the bypass run scatters to
    # every server.
    series = {
        "warm-cached": qps_sweep(
            warm_ms / 1000.0, np.ones(len(warm_ms)), QPS_GRID, SIM),
        "skip-cache": qps_sweep(
            skip_ms / 1000.0, np.full(len(skip_ms), SIM.num_servers),
            QPS_GRID, SIM),
    }
    saturation = {name: saturation_qps(cells, latency_budget_ms=100)
                  for name, cells in series.items()}

    lines = [render_sweep(series), ""]
    lines.append(f"p50 (ms): warm-cached={p50_warm:.3f} "
                 f"skip-cache={p50_skip:.3f} speedup={speedup:.1f}x")
    lines.append(f"Broker cache: hits={hits} misses={misses} "
                 f"hit_ratio={hit_ratio:.2f}")
    lines.append(f"Server pruner: pruned={pruned} scanned={scanned} "
                 f"prune_ratio={prune_ratio:.2f}")
    lines.append("Max QPS at p99<=100ms: " + ", ".join(
        f"{name}={saturation[name]:.0f}" for name in series))
    write_report("cache_hit_ratio", "\n".join(lines))

    assert speedup >= 5.0  # the issue's acceptance bar
    assert hit_ratio >= 0.5
    assert pruned > 0
