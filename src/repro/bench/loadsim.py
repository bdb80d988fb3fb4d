"""Open-loop cluster load simulation for the QPS-sweep figures.

The paper's Figs 11/14/15/16 plot query latency against offered query
rate on a 9-host cluster. A pure-Python engine cannot serve tens of
thousands of QPS, so per DESIGN.md we split the reproduction in two:

1. *measure* the real per-query service time of each engine
   configuration on the synthetic dataset (the harness does this);
2. *simulate* a cluster under open-loop Poisson load, feeding it the
   measured service-time distributions.

The simulator models each server as a FIFO multi-worker station. One
query fans out to ``fanout`` servers; each contacted server performs
``total_work / fanout + overhead`` seconds of work, and the query
completes when its slowest sub-request finishes. This reproduces the
effects the paper discusses: heavier engines saturate at lower rates;
high fan-out amplifies tail latency and burns capacity on per-request
overhead (the §4.4 straggler/routing story).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.health import FailureDetector, HealthPolicy
from repro.cluster.tenant import TenantQuotaManager
from repro.errors import ThrottledError


@dataclass(frozen=True)
class LoadSimConfig:
    """Cluster and experiment parameters (defaults mirror §6's setup:
    nine query-processing hosts)."""

    num_servers: int = 9
    workers_per_server: int = 8
    #: Fixed cost per sub-request (scatter/gather RPC, plan setup).
    overhead_s: float = 0.0005
    duration_s: float = 10.0
    warmup_s: float = 1.0
    seed: int = 0


@dataclass
class LatencyStats:
    """Summary of one (engine, qps) simulation cell."""

    offered_qps: float
    completed: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    #: Fraction of offered queries that completed within the window —
    #: < 1 indicates saturation (the latency "drops out" in the plots).
    completion_ratio: float

    def row(self) -> tuple:
        return (
            self.offered_qps, self.completed, round(self.mean_ms, 2),
            round(self.p50_ms, 2), round(self.p95_ms, 2),
            round(self.p99_ms, 2), round(self.completion_ratio, 3),
        )


def simulate_open_loop(
    service_times_s: np.ndarray,
    fanouts: np.ndarray,
    qps: float,
    config: LoadSimConfig = LoadSimConfig(),
) -> LatencyStats:
    """Simulate Poisson arrivals at ``qps`` and return latency stats.

    ``service_times_s[i]`` is the *total* single-threaded work of query
    shape ``i``; ``fanouts[i]`` is how many servers its routing strategy
    contacts. Queries cycle through the shapes in randomized order.
    """
    if len(service_times_s) != len(fanouts):
        raise ValueError("service_times and fanouts must align")
    rng = np.random.default_rng(config.seed)
    horizon = config.duration_s
    num_arrivals = int(np.ceil(qps * horizon))
    if num_arrivals == 0:
        raise ValueError("qps too low for the simulation window")

    inter = rng.exponential(1.0 / qps, size=num_arrivals)
    arrivals = np.cumsum(inter)
    arrivals = arrivals[arrivals < horizon]
    shape_ids = rng.integers(0, len(service_times_s), size=len(arrivals))

    # Each server is a heap of worker-free times (G/G/c FIFO station).
    servers = [
        [0.0] * config.workers_per_server for _ in range(config.num_servers)
    ]
    for worker_heap in servers:
        heapq.heapify(worker_heap)

    latencies: list[float] = []
    cutoff = horizon  # sub-requests finishing past this are "timeouts"
    server_cursor = 0
    for arrival, shape in zip(arrivals, shape_ids):
        total_work = float(service_times_s[shape])
        fanout = int(fanouts[shape])
        fanout = max(1, min(fanout, config.num_servers))
        per_server = total_work / fanout + config.overhead_s

        # Routing: rotate the contacted-server window so load spreads.
        finish = 0.0
        for i in range(fanout):
            server = servers[(server_cursor + i) % config.num_servers]
            free_at = heapq.heappop(server)
            start = max(arrival, free_at)
            done = start + per_server
            heapq.heappush(server, done)
            if done > finish:
                finish = done
        server_cursor = (server_cursor + fanout) % config.num_servers

        if arrival >= config.warmup_s and finish <= cutoff:
            latencies.append(finish - arrival)

    offered_in_window = int(np.sum(arrivals >= config.warmup_s))
    if not latencies:
        return LatencyStats(qps, 0, float("inf"), float("inf"),
                            float("inf"), float("inf"), float("inf"), 0.0)
    lat_ms = np.asarray(latencies) * 1e3
    return LatencyStats(
        offered_qps=qps,
        completed=len(latencies),
        mean_ms=float(lat_ms.mean()),
        p50_ms=float(np.percentile(lat_ms, 50)),
        p95_ms=float(np.percentile(lat_ms, 95)),
        p99_ms=float(np.percentile(lat_ms, 99)),
        max_ms=float(lat_ms.max()),
        completion_ratio=(len(latencies) / offered_in_window
                          if offered_in_window else 0.0),
    )


def qps_sweep(
    service_times_s: np.ndarray,
    fanouts: np.ndarray,
    qps_values: list[float],
    config: LoadSimConfig = LoadSimConfig(),
) -> list[LatencyStats]:
    """Run :func:`simulate_open_loop` across a QPS grid."""
    return [
        simulate_open_loop(service_times_s, fanouts, qps, config)
        for qps in qps_values
    ]


def saturation_qps(stats: list[LatencyStats],
                   latency_budget_ms: float = 100.0,
                   min_completion: float = 0.99) -> float:
    """The highest offered QPS still meeting an interactive latency
    budget — the scalar used to compare curves ("scales 2x further")."""
    best = 0.0
    for cell in stats:
        if (cell.p99_ms <= latency_budget_ms
                and cell.completion_ratio >= min_completion):
            best = max(best, cell.offered_qps)
    return best


# -- production-shape load (failure detection + adaptive admission) ----------
#
# The closed-loop scenario from the ROADMAP: diurnal arrival rate,
# Zipf-distributed tenants with priorities, a mixed query-shape
# workload, and servers that degrade and recover mid-run. The *real*
# broker components run in the loop — ``repro.cluster.health``'s
# FailureDetector scores every sub-request and ejects/probes servers,
# and ``repro.cluster.tenant``'s TenantQuotaManager sheds low-priority
# tenants when worker backlogs build — so the latency-vs-QPS curves of
# benchmarks/test_production_load.py exercise the exact production code
# paths.


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's share of traffic and its admission configuration."""

    name: str
    weight: float
    priority: float
    capacity: float = 1e9
    refill_rate: float = 1e9


@dataclass(frozen=True)
class QueryShape:
    """One query class: total work, fan-out, and traffic share."""

    name: str
    service_s: float
    fanout: int
    weight: float


#: Interactive dashboards dominate; analytical scans are the heavy tail
#: (the paper's §6 mixed-workload shape).
DEFAULT_SHAPES: tuple[QueryShape, ...] = (
    QueryShape("dashboard", 0.003, 3, 0.70),
    QueryShape("analytics", 0.012, 6, 0.25),
    QueryShape("scan", 0.040, 9, 0.05),
)


@dataclass(frozen=True)
class Degradation:
    """One server's mid-run sickness window: service times multiply by
    ``slow_factor`` and sub-requests fail with ``error_rate`` while
    ``start_s <= t < end_s``; outside the window the server is healthy."""

    server: int
    start_s: float
    end_s: float
    slow_factor: float = 1.0
    error_rate: float = 0.0


def zipf_tenants(n: int = 8, exponent: float = 1.1) -> tuple[TenantProfile, ...]:
    """A Zipf tenant population: rank-1 tenants carry most traffic and
    the highest priority (the paid dashboards), the long tail carries
    little traffic at low priority (the batch/exploratory users) — so
    overload shedding sacrifices the tail first."""
    profiles = []
    for rank in range(1, n + 1):
        weight = 1.0 / rank ** exponent
        priority = (0.9 - 0.8 * (rank - 1) / max(1, n - 1)
                    if n > 1 else 0.9)
        profiles.append(TenantProfile(
            name=f"tenant-{rank:02d}", weight=weight,
            priority=round(priority, 3),
        ))
    return tuple(profiles)


@dataclass(frozen=True)
class ProductionConfig:
    """Cluster and workload parameters for the production-shape sim."""

    num_servers: int = 9
    workers_per_server: int = 8
    overhead_s: float = 0.0005
    duration_s: float = 20.0
    warmup_s: float = 2.0
    seed: int = 0
    #: Arrival rate swings +-amplitude around the mean over one
    #: ``diurnal_period_s`` (defaults to the run window — one
    #: compressed day: trough at the start, peak mid-run).
    diurnal_amplitude: float = 0.5
    diurnal_period_s: float | None = None
    tenants: tuple[TenantProfile, ...] = field(default_factory=zipf_tenants)
    shapes: tuple[QueryShape, ...] = DEFAULT_SHAPES
    degradations: tuple[Degradation, ...] = ()
    #: Per-sub-request replica attempts (primary + retries).
    max_attempts: int = 3
    #: Work one probe costs its target (trickle traffic).
    probe_work_s: float = 0.002
    #: Worker backlog (seconds) that maps to admission pressure 1.0.
    pressure_norm_s: float = 0.25


@dataclass
class ProductionStats:
    """One production-sim cell: latency stats plus the detector's and
    admission control's behavior."""

    stats: LatencyStats
    detector_enabled: bool
    ejections: int
    heals: int
    probes: int
    #: Non-probe sub-requests sent to an ejected server — the
    #: probe-only invariant holds iff this is 0.
    discipline_violations: int
    failed_queries: int
    shed: dict[str, int]
    admitted: dict[str, int]
    #: (virtual time, server, "ejected"/"healed") transitions.
    events: list[tuple[float, str, str]]
    server_subrequests: dict[str, int]
    probe_subrequests: dict[str, int]
    #: Non-probe sub-requests per server departing after every
    #: degradation window closed — healed servers must return here.
    post_recovery_subrequests: dict[str, int]


def _diurnal_arrivals(qps: float, config: ProductionConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Nonhomogeneous Poisson arrivals via thinning: candidates at the
    peak rate, each kept with probability rate(t)/peak."""
    amplitude = config.diurnal_amplitude
    period = (config.diurnal_period_s if config.diurnal_period_s
              else config.duration_s)
    peak = qps * (1.0 + amplitude)
    n_candidates = int(np.ceil(peak * config.duration_s * 1.1)) + 16
    inter = rng.exponential(1.0 / peak, size=n_candidates)
    times = np.cumsum(inter)
    times = times[times < config.duration_s]
    if amplitude <= 0.0:
        return times
    # Trough at t=0, peak mid-window (sin phase -pi/2).
    rate = 1.0 + amplitude * np.sin(
        2.0 * np.pi * times / period - np.pi / 2.0)
    keep = rng.random(len(times)) < rate * qps / peak
    return times[keep]


def _degradation_at(config: ProductionConfig, server: int,
                    t: float) -> tuple[float, float]:
    """(slow_factor, error_rate) in effect on ``server`` at ``t``."""
    slow, err = 1.0, 0.0
    for window in config.degradations:
        if window.server == server and window.start_s <= t < window.end_s:
            slow *= window.slow_factor
            err = max(err, window.error_rate)
    return slow, err


def build_quotas(config: ProductionConfig,
                 shed_start: float = 0.5) -> TenantQuotaManager:
    """A quota manager configured from the tenant population."""
    quotas = TenantQuotaManager(shed_start=shed_start)
    for tenant in config.tenants:
        quotas.configure(tenant.name, tenant.capacity, tenant.refill_rate,
                         priority=tenant.priority)
    return quotas


def simulate_production(
    qps: float,
    config: ProductionConfig = ProductionConfig(),
    detector_policy: HealthPolicy | None = None,
    quotas: TenantQuotaManager | None = None,
) -> ProductionStats:
    """Run one production-shape cell and return stats + detector state.

    ``detector_policy=None`` runs the detector-off baseline (the broker
    keeps routing to sick servers and eats their latency/errors);
    passing a :class:`HealthPolicy` runs the real FailureDetector in
    the routing loop. ``quotas=None`` disables admission control.
    """
    rng = np.random.default_rng(config.seed)
    detector = (FailureDetector(detector_policy)
                if detector_policy is not None else None)
    arrivals = _diurnal_arrivals(qps, config, rng)
    if len(arrivals) == 0:
        raise ValueError("qps too low for the simulation window")

    tenant_names = [t.name for t in config.tenants]
    tenant_p = np.array([t.weight for t in config.tenants])
    tenant_p = tenant_p / tenant_p.sum()
    tenant_ids = rng.choice(len(tenant_names), size=len(arrivals),
                            p=tenant_p)
    shape_p = np.array([s.weight for s in config.shapes])
    shape_p = shape_p / shape_p.sum()
    shape_ids = rng.choice(len(config.shapes), size=len(arrivals),
                           p=shape_p)

    servers = [
        [0.0] * config.workers_per_server
        for _ in range(config.num_servers)
    ]
    for worker_heap in servers:
        heapq.heapify(worker_heap)
    names = [f"server-{i}" for i in range(config.num_servers)]

    recovery_t = max((d.end_s for d in config.degradations), default=0.0)
    server_subrequests = {name: 0 for name in names}
    probe_subrequests = {name: 0 for name in names}
    post_recovery = {name: 0 for name in names}
    shed: dict[str, int] = {}
    admitted: dict[str, int] = {}
    failed_queries = 0
    latencies: list[float] = []
    offered_in_window = 0
    cursor = 0

    def run_subrequest(server_idx: int, depart: float,
                       work_s: float, probe: bool) -> tuple[float, bool]:
        """One sub-request on one server; returns (done, ok). Feeds the
        detector with the outcome and the *service* latency (queueing
        is load, not sickness)."""
        name = names[server_idx]
        if detector is not None:
            detector.record_dispatch(name, now=depart, probe=probe)
        heap = servers[server_idx]
        free = heapq.heappop(heap)
        start = max(depart, free)
        slow, err = _degradation_at(config, server_idx, start)
        service = work_s * slow
        done = start + service
        heapq.heappush(heap, done)
        if probe:
            probe_subrequests[name] += 1
        else:
            server_subrequests[name] += 1
            if config.degradations and depart >= recovery_t:
                post_recovery[name] += 1
        ok = not (err > 0.0 and rng.random() < err)
        if detector is not None:
            if ok:
                detector.observe_success(name, latency_s=service, now=done)
            else:
                detector.observe_failure(name, now=done)
        return done, ok

    for arrival, tenant_id, shape_id in zip(arrivals, tenant_ids,
                                            shape_ids):
        tenant = tenant_names[tenant_id]
        shape = config.shapes[shape_id]
        in_window = arrival >= config.warmup_s
        if in_window:
            offered_in_window += 1

        # Probe trickle: each ejected server gets at most one probe per
        # cadence interval, dispatched here at arrival granularity.
        if detector is not None:
            for name in sorted(detector.ejected_set()):
                if detector.try_probe(name, arrival):
                    run_subrequest(names.index(name), arrival,
                                   config.probe_work_s, probe=True)

        # Adaptive admission: the mean time-to-free-worker across the
        # fleet, normalized, is the queue-pressure signal.
        if quotas is not None:
            backlog = 0.0
            for heap in servers:
                backlog += max(0.0, heap[0] - arrival)
            pressure = min(1.0, backlog / config.num_servers
                           / config.pressure_norm_s)
            try:
                quotas.admit(tenant, now=arrival, pressure=pressure)
            except ThrottledError:
                if in_window:
                    shed[tenant] = shed.get(tenant, 0) + 1
                continue
        if in_window:
            admitted[tenant] = admitted.get(tenant, 0) + 1

        healthy = (
            [i for i in range(config.num_servers)
             if not detector.is_ejected(names[i])]
            if detector is not None else list(range(config.num_servers))
        )
        if not healthy:  # fleet-fraction cap makes this unreachable
            healthy = list(range(config.num_servers))
        fanout = max(1, min(shape.fanout, len(healthy)))
        per_server = shape.service_s / fanout + config.overhead_s

        finish = arrival
        query_ok = True
        for k in range(fanout):
            server_idx = healthy[(cursor + k) % len(healthy)]
            tried = {server_idx}
            done, ok = run_subrequest(server_idx, arrival, per_server,
                                      probe=False)
            # Bounded replica failover, departing when the failure is
            # known; ejected and already-tried servers are excluded.
            while not ok and len(tried) < config.max_attempts:
                candidates = [i for i in healthy if i not in tried]
                if not candidates:
                    break
                retry_idx = candidates[(cursor + k) % len(candidates)]
                tried.add(retry_idx)
                done, ok = run_subrequest(retry_idx, done, per_server,
                                          probe=False)
            if not ok:
                query_ok = False
            finish = max(finish, done)
        cursor = (cursor + fanout) % config.num_servers

        if quotas is not None:
            quotas.charge(tenant, finish - arrival, now=arrival)
        if not in_window:
            continue
        if not query_ok:
            failed_queries += 1
        elif finish <= config.duration_s:
            latencies.append(finish - arrival)

    if latencies:
        lat_ms = np.asarray(latencies) * 1e3
        stats = LatencyStats(
            offered_qps=qps,
            completed=len(latencies),
            mean_ms=float(lat_ms.mean()),
            p50_ms=float(np.percentile(lat_ms, 50)),
            p95_ms=float(np.percentile(lat_ms, 95)),
            p99_ms=float(np.percentile(lat_ms, 99)),
            max_ms=float(lat_ms.max()),
            completion_ratio=(len(latencies) / offered_in_window
                              if offered_in_window else 0.0),
        )
    else:
        stats = LatencyStats(qps, 0, float("inf"), float("inf"),
                             float("inf"), float("inf"), float("inf"), 0.0)
    counters = detector.counters if detector is not None else {}
    return ProductionStats(
        stats=stats,
        detector_enabled=detector is not None,
        ejections=counters.get("ejections", 0),
        heals=counters.get("heals", 0),
        probes=counters.get("probes", 0),
        discipline_violations=counters.get("discipline_violations", 0),
        failed_queries=failed_queries,
        shed=shed,
        admitted=admitted,
        events=list(detector.events) if detector is not None else [],
        server_subrequests=server_subrequests,
        probe_subrequests=probe_subrequests,
        post_recovery_subrequests=post_recovery,
    )


def production_sweep(
    qps_values: list[float],
    config: ProductionConfig = ProductionConfig(),
    detector_policy: HealthPolicy | None = None,
    quotas_factory=None,
) -> list[ProductionStats]:
    """Run :func:`simulate_production` across a QPS grid; a fresh
    quota manager per cell when ``quotas_factory`` is given."""
    return [
        simulate_production(
            qps, config, detector_policy,
            quotas=quotas_factory() if quotas_factory else None,
        )
        for qps in qps_values
    ]
