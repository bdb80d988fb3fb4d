"""Figure 14: Druid vs Pinot on the "share analytics" dataset.

Paper shape: every query filters on the shared item identifier; Pinot
physically sorts segments on it while Druid carries inverted indexes on
every dimension (4x the disk footprint in the paper: 1.2 TB vs 300 GB).
Pinot's latency curve stays flat to much higher query rates; "a large
part of the performance difference ... is due to the physical row
ordering in Pinot".
"""

import numpy as np
import pytest

from benchmarks._common import write_report
from repro.bench import (
    LoadSimConfig,
    qps_sweep,
    render_sweep,
    saturation_qps,
)

ENGINES = ["druid", "pinot-sorted"]
QPS_GRID = [int(1000 * 1.5**k) for k in range(14)]
SIM = LoadSimConfig(duration_s=1.2, warmup_s=0.2, overhead_s=0.00003)


@pytest.fixture(scope="module")
def measured(shares_engines):
    engines, queries = shares_engines
    from repro.bench.harness import measure_all

    return measure_all({name: engines[name] for name in ENGINES},
                       queries, passes=2, repeats=2)


@pytest.mark.parametrize("engine", ENGINES)
def test_fig14_service_time(benchmark, shares_engines, engine):
    engines, queries = shares_engines
    execute = engines[engine]
    benchmark(lambda: [execute(q) for q in queries[:20]])


def test_fig14_report(benchmark, measured, shares_engines):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    series, saturation = {}, {}
    for name, workload in measured.items():
        fanouts = np.full(len(workload.service_times_s), SIM.num_servers)
        series[name] = qps_sweep(workload.service_times_s, fanouts,
                                 QPS_GRID, SIM)
        saturation[name] = saturation_qps(series[name],
                                          latency_budget_ms=100)

    # Storage accounting: the paper's 1.2 TB vs 300 GB contrast.
    from repro.druid.segment import build_druid_segments
    from repro.segment.builder import SegmentBuilder
    from repro.workloads import share_analytics

    from benchmarks._common import SHARES_ROWS

    rows = share_analytics.generate_records(SHARES_ROWS)
    schema = share_analytics.schema()
    builder = SegmentBuilder("pinot", "shares", schema,
                             share_analytics.segment_config())
    builder.add_all(rows)
    pinot_bytes = builder.build().metadata.total_bytes
    druid_bytes = sum(
        s.metadata.total_bytes
        for s in build_druid_segments("shares", schema, rows, time_chunk=4)
    )

    lines = [render_sweep(series), ""]
    lines.append("Mean service time (ms): " + ", ".join(
        f"{n}={w.mean_ms:.2f}" for n, w in measured.items()))
    lines.append("Max QPS at p99<=100ms: " + ", ".join(
        f"{n}={saturation[n]:.0f}" for n in ENGINES))
    lines.append(
        f"Storage: druid={druid_bytes / 1e6:.1f} MB, "
        f"pinot={pinot_bytes / 1e6:.1f} MB "
        f"(ratio {druid_bytes / pinot_bytes:.2f}x; paper: 1.2TB vs 300GB "
        "= 4x)"
    )
    write_report("fig14_share_analytics", "\n".join(lines))

    # Pinot wins on latency and scales further (the paper's gap is
    # larger; our Python substrate compresses ratios — EXPERIMENTS.md).
    assert measured["pinot-sorted"].mean_ms < \
        0.6 * measured["druid"].mean_ms
    assert saturation["pinot-sorted"] >= 1.4 * saturation["druid"]
    # Druid's always-on inverted indexes cost extra storage.
    assert druid_bytes > 1.5 * pinot_bytes
