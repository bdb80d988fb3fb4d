"""Production-shape load trajectory: latency vs offered QPS with and
without the broker failure detector.

Two sweeps over the same diurnal, Zipf-tenant, mixed-shape workload
(``repro.bench.loadsim.simulate_production``), with one server degraded
(8x slow, 25% errors) for half the run:

* ``detector_off`` — the broker keeps routing to the sick server and
  retries around it (the behavior without a failure detector);
* ``detector_on``  — the real :class:`repro.cluster.health.\
FailureDetector` scores every sub-request, ejects the sick server,
  keeps it on probe-only trickle traffic, and returns it to rotation
  once it heals.

A third ``healthy`` sweep (no degradation, detector on) anchors the
saturation point against the cluster's theoretical capacity. The sweeps
run on the simulator's own clock, so every cell is exact for the seed.
"""

from benchmarks._common import write_report
from repro.bench.loadsim import (
    Degradation,
    ProductionConfig,
    build_quotas,
    production_sweep,
)
from repro.cluster.health import HealthPolicy

QPS_GRID = [500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4500.0, 6000.0]
DURATION_S = 20.0
SEED = 7
#: Detector-on p99 must beat detector-off by this factor at ``GATE_QPS``.
GATE_QPS = 1500.0
MIN_P99_IMPROVEMENT = 2.0
#: Healthy saturation must land in this band of theoretical capacity.
SATURATION_BAND = (0.4, 1.05)

DEGRADED = ProductionConfig(
    duration_s=DURATION_S, warmup_s=2.0, seed=SEED,
    degradations=(
        Degradation(server=0, start_s=DURATION_S * 0.2,
                    end_s=DURATION_S * 0.7, slow_factor=8.0,
                    error_rate=0.25),
    ),
)
HEALTHY = ProductionConfig(duration_s=DURATION_S, warmup_s=2.0, seed=SEED)


def theoretical_capacity_qps(config: ProductionConfig) -> float:
    """Worker-seconds available per second divided by the weighted mean
    worker-seconds one query costs (service work + per-sub-request
    overhead)."""
    weights = sum(shape.weight for shape in config.shapes)
    work = sum(
        shape.weight / weights
        * (shape.service_s
           + min(shape.fanout, config.num_servers) * config.overhead_s)
        for shape in config.shapes
    )
    return config.num_servers * config.workers_per_server / work


def sweeps() -> dict:
    """The three sweeps over ``QPS_GRID``, one cell per QPS each."""
    policy = HealthPolicy()
    return {
        name: production_sweep(QPS_GRID, config, detector,
                               quotas_factory=lambda c=config:
                               build_quotas(c))
        for name, config, detector in (
            ("detector_off", DEGRADED, None),
            ("detector_on", DEGRADED, policy),
            ("healthy", HEALTHY, policy),
        )
    }


def _p99(cells, qps: float) -> float:
    return next(c.stats.p99_ms for c in cells if c.stats.offered_qps == qps)


def _healthy_saturation_qps(cells) -> float:
    return max((c.stats.offered_qps for c in cells
                if c.stats.p99_ms <= 100.0
                and c.stats.completion_ratio >= 0.99), default=0.0)


def test_production_load_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    curves = sweeps()
    capacity = theoretical_capacity_qps(HEALTHY)
    saturation = _healthy_saturation_qps(curves["healthy"])
    lines = [f"{DURATION_S:.0f}s diurnal run, seed {SEED}; server-0 8x slow "
             f"with 25% errors over [{DURATION_S * 0.2:.0f}s, "
             f"{DURATION_S * 0.7:.0f}s)",
             "sweep        |    qps | p50 ms | p99 ms | completion | "
             "ejections | shed"]
    for name, cells in curves.items():
        for cell in cells:
            stats = cell.stats
            lines.append(
                f"{name:<12} | {stats.offered_qps:>6.0f} | "
                f"{stats.p50_ms:>6.2f} | {stats.p99_ms:>6.2f} | "
                f"{stats.completion_ratio:>10.4f} | {cell.ejections:>9} | "
                f"{sum(cell.shed.values())}")
    lines.append(f"healthy saturation {saturation:.0f} qps of theoretical "
                 f"{capacity:.0f}")
    write_report("production_load", "\n".join(lines))

    # The detector cuts p99 at every QPS, by the gate factor at GATE_QPS.
    for on, off in zip(curves["detector_on"], curves["detector_off"]):
        assert on.stats.p99_ms < off.stats.p99_ms, on.stats.offered_qps
    off_p99 = _p99(curves["detector_off"], GATE_QPS)
    on_p99 = _p99(curves["detector_on"], GATE_QPS)
    assert off_p99 >= MIN_P99_IMPROVEMENT * on_p99, (off_p99, on_p99)
    # Ejected servers see only probe traffic.
    for cell in curves["detector_on"] + curves["healthy"]:
        assert cell.discipline_violations == 0, cell.stats.offered_qps
    # The detector was exercised, and the healed server came back.
    ejecting = [cell for cell in curves["detector_on"] if cell.ejections]
    assert ejecting, "the detector never ejected the degraded server"
    for cell in ejecting:
        assert cell.post_recovery_subrequests["server-0"] > 0, \
            cell.stats.offered_qps
    # Healthy saturation tracks the cluster's theoretical capacity.
    low, high = SATURATION_BAND
    assert low * capacity <= saturation <= high * capacity, \
        (saturation, capacity)
