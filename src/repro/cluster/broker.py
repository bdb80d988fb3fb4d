"""Pinot brokers (§3.2, §3.3.2-3.3.3).

Brokers parse and optimize queries, pick a routing table, scatter the
query to servers, gather the per-server partial results, and merge them
into the final response. They listen to external-view changes and
rebuild routing tables as replicas come and go. For hybrid tables the
broker transparently rewrites one logical query into an offline and a
realtime query split at the time boundary (Fig 6). What a broker knows
of a table is one record (:class:`_TableView`), refreshed when the
table changes, not read from ZooKeeper per query.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.cache.pruner import (
    SegmentSummary,
    compile_pruner,
    prune_reason,
    record_summary,
)
from repro.cache.result_cache import BrokerResultCache, CachedResult
from repro.cluster.health import (
    EVENT_EJECTED,
    EVENT_HEALED,
    FailureDetector,
    HealthPolicy,
    QueuePressure,
)
from repro.cluster.table import (
    TableConfig,
    TableType,
    pushed_segment_records,
    read_segment_record,
    read_table_config,
    table_exists,
)
from repro.cluster.tenant import TenantQuotaManager
from repro.common.timeutils import time_boundary
from repro.engine.merge import reduce_server_results
from repro.engine.results import BrokerResponse, ServerResult
from repro.errors import (
    ClusterError,
    RoutingError,
    ServerBusyError,
    ThrottledError,
)
from repro.helix.manager import HelixManager
from repro.helix.statemachine import SegmentState
from repro.net import (
    CallResult,
    HedgePolicy,
    LatencyTracker,
    Shared,
    SimClock,
)
from repro.obs.metrics import Metrics
from repro.obs.trace import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    Span,
    SpanContext,
    Trace,
    Tracer,
)
from repro.pql.ast_nodes import (
    AggFunc,
    Aggregation,
    HavingCondition,
    OrderBy,
    Query,
    predicate_columns,
)
from repro.pql.parser import parse
from repro.pql.rewriter import optimize, split_hybrid
from repro.routing.balanced import BalancedRouting
from repro.routing.base import RoutingStrategy, TableRoutingSnapshot
from repro.routing.large_cluster import LargeClusterRouting
from repro.routing.partition_aware import PartitionAwareRouting

_QUERYABLE_STATES = frozenset(
    {SegmentState.ONLINE.value, SegmentState.CONSUMING.value}
)

#: Smart-approximation rewrites (§4.3 follow-up work): exact functions
#: whose partial state grows with the data, and the bounded-state sketch
#: function the broker swaps in when the estimated input size crosses
#: the configured threshold.
_APPROX_REWRITES = {
    AggFunc.DISTINCTCOUNT: AggFunc.DISTINCTCOUNTHLL,
    AggFunc.PERCENTILE50: AggFunc.PERCENTILEEST50,
    AggFunc.PERCENTILE90: AggFunc.PERCENTILEEST90,
    AggFunc.PERCENTILE95: AggFunc.PERCENTILEEST95,
    AggFunc.PERCENTILE99: AggFunc.PERCENTILEEST99,
}

#: Rewrites gated on the target column's distinct-value count (the
#: exact state is a value set); the rest gate on total row count (the
#: exact state is the raw sample).
_CARDINALITY_GATED = frozenset({AggFunc.DISTINCTCOUNT})


def _make_strategy(config: TableConfig,
                   rng: random.Random) -> RoutingStrategy:
    name = config.routing_strategy
    options = dict(config.routing_options)
    if name == "balanced":
        return BalancedRouting(rng=rng, **options)
    if name == "large_cluster":
        return LargeClusterRouting(rng=rng, **options)
    if name == "partition_aware":
        return PartitionAwareRouting(rng=rng, **options)
    raise ClusterError(f"unknown routing strategy {name!r}")


#: ``_TableView._max_time`` before the pushed records are read.
_UNREAD = object()


class _TableView:
    """What one broker knows of one physical table (§3.3.2-3.3.3). A new
    config object replaces it (keeping the routing version counting);
    an external-view change drops the copied view and the routing;
    a move of the table's Helix epoch, which follows every write of a
    segment record, drops the records read. Reads are lazy, and what is
    kept is a copy: Helix and the controller edit view entries and
    stored records in place."""

    __slots__ = ("_helix", "table", "config", "strategy", "version",
                 "routed", "epoch", "_replicas", "_consuming", "_records",
                 "_summaries", "_max_time")

    def __init__(self, helix: HelixManager, table: str,
                 config: TableConfig, strategy: RoutingStrategy,
                 version: int):
        self._helix = helix
        self.table = table
        self.config = config
        self.strategy = strategy
        #: Bumped by each routing rebuild; part of the cache key.
        self.version = version
        self.routed = False
        self.epoch = helix.table_epoch(table)
        #: segment -> ((instance, state), ...), None until read.
        self._replicas: dict[str, tuple[tuple[str, str], ...]] | None = None
        self._consuming: tuple[tuple[str, str], ...] = ()
        self._records: dict[str, dict] = {}
        self._summaries: dict[str, SegmentSummary] = {}
        self._max_time = _UNREAD

    def view_changed(self) -> None:
        self._replicas = None
        self.routed = False

    def check_epoch(self) -> None:
        epoch = self._helix.table_epoch(self.table)
        if epoch != self.epoch:
            self.epoch = epoch
            self._records = {}
            self._summaries = {}
            self._max_time = _UNREAD

    def replicas(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """The external view: every segment's (instance, state) pairs."""
        if self._replicas is None:
            self._replicas = {
                segment: tuple(states.items())
                for segment, states in self._helix.external_view(
                    self.table).items()
            }
            self._consuming = tuple(
                (segment, instance)
                for segment, states in self._replicas.items()
                for instance, state in states
                if state == SegmentState.CONSUMING.value
            )
        return self._replicas

    def consuming(self) -> tuple[tuple[str, str], ...]:
        """Every CONSUMING replica in the view, live or not, as
        (segment, instance) in view order."""
        self.replicas()
        return self._consuming

    def record(self, segment: str) -> dict:
        """The segment's published record (``{}`` when there is none)."""
        if segment not in self._records:
            self._records[segment] = dict(
                read_segment_record(self._helix, self.table, segment))
        return self._records[segment]

    def summary(self, segment: str) -> SegmentSummary:
        if segment not in self._summaries:
            self._summaries[segment] = record_summary(
                self.record(segment), self.config.time_column)
        return self._summaries[segment]

    def max_time(self) -> int | None:
        """The latest ``max_time`` over every pushed segment's record,
        routed or not; None when no record has one."""
        if self._max_time is _UNREAD:
            self._max_time = max(
                (meta["max_time"] for meta in pushed_segment_records(
                    self._helix, self.table)
                 if meta.get("max_time") is not None),
                default=None)
        return self._max_time


@dataclass(frozen=True, slots=True)
class QueryLogEntry:
    """One executed query's footprint, mined for auto-indexing (§5.2)."""

    table: str
    filter_columns: frozenset[str]
    entries_scanned_in_filter: int
    docs_scanned: int


@dataclass(slots=True)
class _SubRequest:
    """One sub-request from dispatch to settling: the segments sent to
    one replica, what came back, and every replica tried for those
    segments so far (primary, hedge and retries), so that a failover
    never re-picks one that already failed them."""

    instance: str
    segments: list[str]
    result: ServerResult
    call: CallResult | None
    span: Span | None
    tried: set[str]


@dataclass
class _QueryRun:
    """One logical query in flight: what every step of the query path
    reads and writes, and the one place its stages are accounted. The
    first group of fields accumulates over the query's physical legs (a
    hybrid query has two); :meth:`begin_leg` resets the second."""

    clock: SimClock
    metrics: Metrics
    component: str
    started: float
    deadline: float | None
    trace: Trace | None
    #: Latest gather barrier — the query's own wall, independent of
    #: whatever the shared clock has reached serving other traffic.
    finished_at: float = 0.0
    stage_times: dict[str, float] = field(default_factory=dict)
    results: list[ServerResult] = field(default_factory=list)
    recovered_errors: list[str] = field(default_factory=list)
    pruned: int = 0
    contacted: set[str] = field(default_factory=set)
    responded: set[str] = field(default_factory=set)
    retries: int = 0
    segments_failed_over: int = 0
    #: True when any sub-request ran out of deadline budget; such a
    #: response must never be cached even if it merged cleanly.
    deadline_exhausted: bool = False

    # -- per physical query ---------------------------------------------------
    query: Query | None = None
    strategy: RoutingStrategy | None = None
    #: Instances whose dispatch this leg is probe traffic (the capped
    #: trickle sent to ejected servers).
    probes: set[str] = field(default_factory=set)
    #: Hedged duplicates issued, capped per physical query.
    hedges: int = 0
    #: Link + queue time over the leg's sub-requests (the network stage).
    network_ms: float = 0.0
    #: The leg's query as every sub-request (primary, hedge, retry)
    #: ships it: encoded once, decoded afresh by each server.
    request: Shared | None = None

    def begin_leg(self, query: Query) -> None:
        self.query = query
        self.request = Shared(query)
        self.probes = set()
        self.hedges = 0
        self.network_ms = 0.0

    def record_stage(self, name: str, elapsed_ms: float) -> None:
        self.metrics.record_stage(name, elapsed_ms)
        self.stage_times[name] = self.stage_times.get(name, 0.0) + elapsed_ms

    @contextmanager
    def stage(self, name: str, span: bool = True,
              span_start: float | None = None, **attrs):
        """Account one stage timed on the broker's clock. A traced query
        also gets a span under the root, open while the stage runs (so
        sub-request spans can parent under it) and yielded to it.
        ``span=False`` times the stage without one; ``span_start`` puts
        the span at another instant than the clock start. A stage that
        raises records nothing (docs/ARCHITECTURE.md, "Query path")."""
        started = self.clock.now()
        opened = None
        if span and self.trace is not None:
            opened = self.trace.add_span(
                name, self.trace.root,
                started if span_start is None else span_start, None,
                component=self.component, **attrs)
        yield opened
        ended = self.clock.now()
        if opened is not None:
            opened.end_s = ended
        self.record_stage(name, (ended - started) * 1e3)


class BrokerInstance:
    """One Pinot broker."""

    #: Bound on the retained query log (oldest entries are dropped).
    QUERY_LOG_LIMIT = 10_000
    #: Per sub-request attempt bound: the primary dispatch plus up to
    #: two failovers to other replicas.
    MAX_SUBREQUEST_ATTEMPTS = 3
    #: Base of the exponential backoff charged against the query's
    #: deadline before each retry (simulated — no real sleep).
    RETRY_BACKOFF_BASE_MS = 25.0

    def __init__(self, instance_id: str, helix: HelixManager,
                 quotas: TenantQuotaManager | None = None,
                 seed: int = 0, clock: SimClock | None = None,
                 hedging: HedgePolicy | None = None,
                 tracer: Tracer | None = None,
                 health: HealthPolicy | None = None,
                 use_approximate_function: bool = False,
                 approx_threshold: int = 10_000):
        self.instance_id = instance_id
        self._helix = helix
        #: Smart approximations (off by default): when enabled — per
        #: cluster here, or per query via
        #: ``OPTION(useApproximateFunction=...)`` — the broker rewrites
        #: exact DISTINCTCOUNT/PERCENTILE aggregations to their
        #: bounded-state sketch variants once the estimated input
        #: (distinct values / total rows) reaches ``approx_threshold``.
        self.use_approximate_function = use_approximate_function
        self.approx_threshold = approx_threshold
        #: All sub-requests travel over the cluster transport; deadline
        #: math, backoff accounting, and quota refill read its clock.
        self._transport = helix.transport
        self._clock = clock if clock is not None else helix.transport.clock
        #: Hedged sub-requests (off unless a policy is supplied): track
        #: per-table sub-request latencies and re-issue stragglers.
        self._latency = (LatencyTracker(hedging) if hedging is not None
                         else None)
        #: Failure detector (off unless configured, matching real
        #: Pinot's opt-in broker module): scores every sub-request
        #: outcome, ejects sick servers from routing, probes them back.
        self.health = (FailureDetector(health) if health is not None
                       else None)
        #: Smoothed inbound-queue utilization across contacted servers;
        #: drives adaptive admission (tenant-priority load shedding).
        self.pressure = QueuePressure()
        self._quotas = quotas
        self._rng = random.Random(seed)
        self._tables: dict[str, _TableView] = {}
        self.queries_served = 0
        self.query_log: list[QueryLogEntry] = []
        #: Interned: the log's 10 000 entries share a few distinct sets.
        self._filter_column_sets: dict[frozenset, frozenset] = {}
        self.metrics = Metrics()
        #: Distributed tracing (repro.obs): sampling off by default,
        #: per-query opt-in via ``OPTION(trace=true)``.
        self.tracer = tracer if tracer is not None else Tracer(
            clock=self._clock, component=instance_id, seed=seed,
        )
        self.result_cache = BrokerResultCache(clock=self._clock)
        helix.watch_external_view(self._on_view_change)

    # -- routing-table maintenance (§3.3.2) -----------------------------------

    def _on_view_change(self, event: str, path: str) -> None:
        view = self._tables.get(path.rsplit("/", 1)[-1])
        if view is not None:
            view.view_changed()

    def _view_of(self, table: str) -> _TableView:
        """The table's record, refreshed against its config and epoch."""
        config = read_table_config(self._helix, table)
        view = self._tables.get(table)
        if view is None or view.config is not config:
            view = self._tables[table] = _TableView(
                self._helix, table, config, _make_strategy(config, self._rng),
                view.version if view is not None else 0)
        else:
            view.check_epoch()
        return view

    def _routed(self, table: str) -> _TableView:
        """The table's record with its routing strategy rebuilt from the
        current external view."""
        view = self._view_of(table)
        if not view.routed:
            self._rebuild(view)
        return view

    def _rebuild(self, view: _TableView) -> None:
        view.version += 1
        config = view.config
        live = set(self._helix.live_instances())
        segment_to_instances: dict[str, list[str]] = {}
        for segment, replica_states in view.replicas().items():
            replicas = [
                instance for instance, state in replica_states
                if state in _QUERYABLE_STATES and instance in live
            ]
            if replicas:
                segment_to_instances[segment] = sorted(replicas)
        snapshot = TableRoutingSnapshot(
            segment_to_instances=segment_to_instances,
            segment_partitions=self._segment_partitions(
                view, segment_to_instances
            ),
            partition_column=(config.partition.column
                              if config.partition else None),
            num_partitions=(config.partition.num_partitions
                            if config.partition else None),
            time_column=config.time_column,
        )
        view.strategy.rebuild(snapshot)
        view.routed = True

    @staticmethod
    def _segment_partitions(view: _TableView,
                            segments: dict[str, list[str]]) -> dict[str, int]:
        if view.config.partition is None:
            return {}
        partitions: dict[str, int] = {}
        for segment in segments:
            meta = view.record(segment)
            partition = meta.get("partition_id", meta.get("partition"))
            if partition is not None:
                partitions[segment] = partition
        return partitions

    # -- query execution (§3.3.3) ------------------------------------------------

    def execute(self, pql: str | Query, tenant: str | None = None,
                now: float | None = None,
                at: float | None = None) -> BrokerResponse:
        """Run one query end to end and return the broker response.

        The scatter/gather is failure-hardened (§3.3.3 step 7 and the
        resilience follow-up work): failed sub-requests are retried on
        different replicas within the query's ``OPTION(timeoutMs=...)``
        deadline, and when no replica can serve some segments the
        merged response is returned with ``partial=True`` and per-server
        error detail instead of failing the whole query.

        ``at`` pins the query's virtual start (and scatter departure)
        time, letting callers model concurrent load: several queries
        issued ``at`` the same instant contend for the same server
        queues even though this process runs them sequentially.
        """
        started = at if at is not None else self._clock.now()
        query, physical = self._plan(pql)
        query, physical, rewrites = self._maybe_rewrite_approx(query,
                                                               physical)
        first_config = read_table_config(self._helix, physical[0].table)
        tenant = tenant or first_config.tenant
        if self._quotas is not None:
            clock = now if now is not None else self._clock.now()
            try:
                self._quotas.admit(tenant, clock,
                                   pressure=self.pressure.value)
            except ThrottledError as exc:
                self.metrics.incr("admission_shed"
                                  if exc.reason == "overload"
                                  else "throttled")
                raise

        self.metrics.incr("queries")
        timeout_ms = query.options.get("timeoutMs")
        deadline = (started + timeout_ms / 1e3
                    if timeout_ms is not None else None)

        #: Per-query trace (repro.obs): None unless sampled in or
        #: forced with OPTION(trace=true) — the untraced path pays only
        #: this call and a few None checks.
        trace = self.tracer.start_trace(
            "query", at=started, force=bool(query.options.get("trace")),
            table=query.table,
        )
        if trace is not None:
            trace.root.attributes["pql"] = str(query)
            self.metrics.incr("traces")
        run = _QueryRun(self._clock, self.metrics, self.instance_id,
                        started=started, deadline=deadline, trace=trace)

        cache_key = None
        if query.options.get("skipCache"):
            self.metrics.incr("cache_bypass")
        else:
            with run.stage("cache") as span:
                cache_key = self._cache_key(physical)
                cached = (self.result_cache.get(cache_key)
                          if cache_key is not None else None)
                if span is not None:
                    span.attributes["outcome"] = (
                        "bypass" if cache_key is None
                        else "hit" if cached is not None else "miss")
            if cache_key is None:
                # Consuming offsets unknown (e.g. a replica died
                # mid-query): bypass rather than risk a stale hit.
                self.metrics.incr("cache_bypass")
            elif cached is not None:
                return self._serve_from_cache(cached, run, tenant, now)
            else:
                self.metrics.incr("cache_misses")

        log_entries: list[QueryLogEntry] = []
        for leg in physical:
            first_result = len(run.results)
            run.begin_leg(leg)
            routing_table = self._route(run)
            if routing_table is not None:
                self._gather(run, self._scatter(run, routing_table, at))
            at = None  # only the first leg departs at `at`
            entry = self._record_query_log(leg, run.results[first_result:])
            if entry is not None:
                log_entries.append(entry)

        elapsed_ms = (max(started, run.finished_at) - started) * 1e3
        self._charge(tenant, now, elapsed_ms)
        with run.stage("merge") as span:
            response = reduce_server_results(
                query, run.results, elapsed_ms,
                recovered_exceptions=run.recovered_errors)
            if span is not None:
                span.attributes["rows"] = len(response.table)
        response.num_servers_queried = len(run.contacted)
        response.num_servers_responded = len(run.responded)
        response.num_segments_pruned_by_broker = run.pruned
        response.num_retries = run.retries
        response.num_segments_failed_over = run.segments_failed_over
        response.stage_times_ms = run.stage_times
        response.rewrites = rewrites
        if response.is_partial:
            # Partial answers must never be cached: a retry after the
            # failure heals would keep returning the degraded result.
            self.metrics.incr("partial_responses")
        elif cache_key is not None and not run.deadline_exhausted:
            self.result_cache.put(cache_key, response, log_entries)
        if trace is not None:
            # Attach via replace() AFTER the cache put: the cache stores
            # the response by reference, and cached entries must stay
            # trace-free (a later hit is its own, much shorter, trace).
            trace.root.attributes.update(
                partial=response.is_partial,
                servers_queried=len(run.contacted),
                servers_responded=len(run.responded),
                retries=run.retries,
                rows=len(response.table),
            )
            self.tracer.finish_trace(
                trace,
                status=STATUS_ERROR if response.is_partial else STATUS_OK,
            )
            response = replace(response, trace=trace.to_dict())
        return response

    def _charge(self, tenant: str | None, now: float | None,
                elapsed_ms: float) -> None:
        """Bill an answered query, executed or cached, to its tenant."""
        if self._quotas is not None:
            clock = now if now is not None else self._clock.now()
            self._quotas.charge(tenant, elapsed_ms / 1e3, clock)
        self.queries_served += 1

    # -- result cache (repro.cache) -----------------------------------------

    def _cache_key(self, physical: list[Query]) -> tuple | None:
        """The result-cache key for one logical query's physical plan.

        Per physical query: normalized plan text, the table's segment
        epoch, the routing-table version, and the consuming-segment
        offsets. Returns None (bypass caching) when any consuming
        replica's offset cannot be determined — a key that cannot prove
        freshness must not be cached under.
        """
        parts = []
        for physical_query in physical:
            view = self._routed(physical_query.table)
            fingerprint = self._consuming_fingerprint(view)
            if fingerprint is None:
                return None
            parts.append((
                view.table,
                str(physical_query),
                bool(physical_query.options.get("skipPrune")),
                view.epoch,
                view.version,
                fingerprint,
            ))
        return tuple(parts)

    def _consuming_fingerprint(self, view: _TableView) -> tuple | None:
        """The (segment, instance, offset) triples of every CONSUMING
        replica — offline tables return (). Embedding live offsets in
        the key gives realtime and hybrid caching zero staleness by
        construction: any newly consumed event changes the key."""
        entries = []
        for segment, instance in view.consuming():
            participant = self._helix.participant(instance)
            if participant is None or not hasattr(
                    participant, "consuming_offset"):
                return None
            try:
                offset = self._transport.call(
                    self.instance_id, instance,
                    "consuming_offset", view.table, segment,
                )
            except ClusterError:
                offset = None
            if offset is None:
                return None
            entries.append((segment, instance, offset))
        return tuple(sorted(entries))

    def _serve_from_cache(self, cached: CachedResult, run: _QueryRun,
                          tenant: str | None,
                          now: float | None) -> BrokerResponse:
        """Answer from the result cache, keeping every side effect a
        real execution would have had: quota charging, the query log
        (auto-index mining, §5.2), and query counters."""
        self.metrics.incr("cache_hits")
        self._log_queries(cached.log_entries)
        elapsed_ms = max(0.0, self._clock.now() - run.started) * 1e3
        self._charge(tenant, now, elapsed_ms)
        trace_dict = None
        if run.trace is not None:
            # A cache hit's trace is just root + the cache span: no
            # route/scatter/rpc spans because no server was contacted.
            run.trace.root.attributes["cache_hit"] = True
            self.tracer.finish_trace(run.trace)
            trace_dict = run.trace.to_dict()
        return replace(
            cached.response,
            cache_hit=True,
            time_used_ms=elapsed_ms,
            stage_times_ms=run.stage_times,
            trace=trace_dict,
        )

    # -- smart approximations ------------------------------------------------

    def _maybe_rewrite_approx(
        self, query: Query, physical: list[Query],
    ) -> tuple[Query, list[Query], tuple[str, ...]]:
        """Swap exact DISTINCTCOUNT/PERCENTILE for sketch variants when
        enabled and the estimated input crosses the threshold.

        Runs *before* the cache key is computed, and the rewritten
        select list is part of the physical plan text the key embeds —
        so exact and approximate answers can never collide in the
        result cache. Every leg carries the logical query's select
        list, so the legs are rewritten in place of being resolved (and
        a hybrid table's time boundary read) again.
        """
        option = query.options.get("useApproximateFunction")
        enabled = (bool(option) if option is not None
                   else self.use_approximate_function)
        if not enabled:
            return query, physical, ()
        targets = [a for a in query.aggregations
                   if a.func in _APPROX_REWRITES]
        if not targets:
            return query, physical, ()
        total_docs, cardinalities = self._approx_estimates(
            physical, {a.column for a in targets
                       if a.func in _CARDINALITY_GATED})
        mapping: dict[Aggregation, Aggregation] = {}
        rewrites: list[str] = []
        for aggregation in targets:
            if aggregation.func in _CARDINALITY_GATED:
                estimate = cardinalities.get(aggregation.column, 0)
            else:
                estimate = total_docs
            if estimate < self.approx_threshold:
                continue
            rewritten = Aggregation(_APPROX_REWRITES[aggregation.func],
                                    aggregation.column)
            mapping[aggregation] = rewritten
            rewrites.append(f"{aggregation} -> {rewritten}")
        if not mapping:
            return query, physical, ()
        self.metrics.incr("approx_rewrites")
        return (self._apply_rewrites(query, mapping),
                [self._apply_rewrites(leg, mapping) for leg in physical],
                tuple(rewrites))

    def _approx_estimates(
        self, physical: list[Query], columns: set[str],
    ) -> tuple[int, dict[str, int]]:
        """Summed segment-metadata estimates across every physical
        table: total stored docs, and per-column distinct-value counts
        (falling back to the segment's doc count when a segment predates
        cardinality publishing)."""
        total_docs = 0
        cardinalities: dict[str, int] = {}
        for physical_query in physical:
            view = self._view_of(physical_query.table)
            for segment in view.replicas():
                meta = view.record(segment)
                num_docs = meta.get("num_docs") or 0
                total_docs += num_docs
                cards = meta.get("cardinalities") or {}
                for column in columns:
                    cardinalities[column] = (
                        cardinalities.get(column, 0)
                        + cards.get(column, num_docs)
                    )
        return total_docs, cardinalities

    @staticmethod
    def _apply_rewrites(query: Query,
                        mapping: dict[Aggregation, Aggregation]) -> Query:
        """Rebuild the query with every mapped aggregation replaced —
        consistently across select, ORDER BY and HAVING, which all
        reference aggregations by value."""
        select = tuple(
            mapping.get(item, item) if isinstance(item, Aggregation)
            else item
            for item in query.select
        )
        order_by = tuple(
            OrderBy(mapping[o.expression], o.descending)
            if isinstance(o.expression, Aggregation)
            and o.expression in mapping else o
            for o in query.order_by
        )
        having = tuple(
            HavingCondition(mapping.get(h.aggregation, h.aggregation),
                            h.op, h.value)
            for h in query.having
        )
        return replace(query, select=select, having=having,
                       order_by=order_by, options=dict(query.options))

    # -- planning (§3.3.3 step 1, Fig 6) ---------------------------------------

    def _plan(self, pql: str | Query) -> tuple[Query, list[Query]]:
        """Parse and optimize one query, and resolve its physical legs."""
        query = optimize(parse(pql) if isinstance(pql, str) else pql)
        return query, self._resolve_physical_queries(query)

    def _resolve_physical_queries(self, query: Query) -> list[Query]:
        """Map the logical table to physical queries, splitting hybrid
        tables at the time boundary (§3.3.3, Fig 6)."""
        logical = query.table
        offline = f"{logical}_{TableType.OFFLINE.value}"
        realtime = f"{logical}_{TableType.REALTIME.value}"
        # Existence only: parsing either leg's config here would add a
        # ``from_dict`` to every query.
        has_offline = table_exists(self._helix, offline)
        has_realtime = table_exists(self._helix, realtime)
        if not has_offline and not has_realtime:
            # Allow physical names directly (e.g. "events_OFFLINE").
            if table_exists(self._helix, logical):
                return [query]
            raise ClusterError(f"no such table: {logical!r}")
        if has_offline and not has_realtime:
            return [query.with_table(offline)]
        if has_realtime and not has_offline:
            return [query.with_table(realtime)]

        view = self._view_of(offline)
        time_column = view.config.time_column
        if time_column is None:
            raise ClusterError(
                f"hybrid table {logical!r} requires a time column"
            )
        max_time = view.max_time()
        if max_time is None:
            # No offline data yet; serve everything from realtime.
            return [query.with_table(realtime)]
        # Use the table's configured granularity *including its size*:
        # with e.g. (DAYS, 7) buckets, a boundary of max_time - 1 would
        # let the offline side serve a partially-pushed trailing bucket
        # and drop the realtime rows that complete it. max - size is
        # always <= the last fully-covered bucket's end, so offline
        # (time <= boundary) and realtime (time > boundary) partition
        # the axis with no gap and no overlap.
        boundary = time_boundary(max_time, view.config.retention_granularity)
        return list(split_hybrid(query, time_column, boundary, offline,
                                 realtime))

    # -- each physical leg: route, scatter, gather (§3.3.3 steps 2-7) ---------

    def _route(self, run: _QueryRun) -> dict[str, list[str]] | None:
        """The leg's routing table after broker-side pruning and the
        health filter; None (with an error result) when it has none."""
        query = run.query
        with run.stage("route", table=query.table) as span:
            view = self._routed(query.table)
            run.strategy = view.strategy
            try:
                routing_table = run.strategy.route(query)
            except RoutingError as exc:
                if span is not None:
                    span.set_error(str(exc), error_type="RoutingError")
                run.results.append(
                    ServerResult(server=self.instance_id, error=str(exc))
                )
                run.finished_at = max(run.finished_at, self._clock.now())
                return None
            routing_table, pruned = self._prune(view, query, routing_table)
            run.pruned += pruned
            routing_table = self._apply_health(run, routing_table)
            if span is not None:
                span.attributes.update(servers=len(routing_table),
                                       segments_pruned=pruned)
        return routing_table

    def _scatter(self, run: _QueryRun, routing_table: dict[str, list[str]],
                 depart_at: float | None) -> deque[_SubRequest]:
        """The primary fan-out over the routing table, hedging
        stragglers, up to the gather barrier. Returns the sub-requests
        that failed, for :meth:`_gather` to fail over."""
        # Every sub-request departs at the same virtual instant — the
        # broker sends them concurrently, even though this process
        # executes the handlers one after another.
        t0 = depart_at if depart_at is not None else self._clock.now()
        failures: deque[_SubRequest] = deque()
        with run.stage("scatter", span_start=t0, table=run.query.table,
                       fanout=len(routing_table)) as parent:
            in_flight = [
                self._dispatch(run, instance, segments, {instance},
                               depart_at=t0, parent=parent)
                for instance, segments in routing_table.items()
            ]
            barrier = t0
            for sub in in_flight:
                if sub.call is not None:
                    sub = self._maybe_hedge(run, sub, t0, parent)
                    barrier = max(barrier, sub.call.completed)
                    if self._latency is not None and sub.result.error is None:
                        # Only the winner's own flight time (departure to
                        # completion) feeds the percentile window.
                        # Counting from t0 would fold the budget wait
                        # into every hedged sample, compounding the
                        # budget by the multiplier each query until
                        # hedging disabled itself; counting stragglers
                        # would do the same.
                        self._latency.observe(run.query.table,
                                              sub.call.duration_s)
                self._settle(run, sub, failures)
            # The broker's gather barrier: it has now waited for every
            # primary (and winning hedge) response on the virtual
            # timeline.
            self._clock.advance_to(barrier)
        run.finished_at = max(run.finished_at, barrier)
        return failures

    def _gather(self, run: _QueryRun, failures: deque[_SubRequest]) -> None:
        """Fail sub-requests over to other replicas, bounded by
        MAX_SUBREQUEST_ATTEMPTS and the remaining deadline budget; then
        record the leg's ``network`` stage."""
        with run.stage("gather", span=bool(failures), table=run.query.table,
                       failed_subrequests=len(failures)) as parent:
            while failures:
                failed = failures.popleft()
                attempt = len(failed.tried)
                backoff_ms = (self.RETRY_BACKOFF_BASE_MS
                              * (2 ** (attempt - 1)))
                within_deadline = (
                    run.deadline is None
                    or self._clock.now() + backoff_ms / 1e3 < run.deadline
                )
                if (attempt >= self.MAX_SUBREQUEST_ATTEMPTS
                        or not within_deadline):
                    if not within_deadline:
                        self.metrics.incr("deadline_exhausted")
                        run.deadline_exhausted = True
                        reason = "deadline exhausted"
                    else:
                        reason = f"retry attempts exhausted ({attempt})"
                    # Attribute the give-up to the server that actually
                    # produced the last error (failed.result.server),
                    # with the replicas already tried spelled out.
                    run.results.append(replace(
                        failed.result,
                        error=(f"{failed.result.error} [gave up: {reason}; "
                               f"tried {sorted(failed.tried)}]"),
                    ))
                    continue
                reroute, unroutable = self._reselect(run, failed.segments,
                                                     failed.tried)
                if unroutable:
                    # No replica left for *these* segments: report
                    # exactly which segments are stuck and which
                    # replicas failed, attributed to the server of the
                    # last real error — not blanket-blamed on the
                    # primary when only a subset of its segments is
                    # unroutable.
                    self.metrics.incr("segments_unroutable",
                                      len(unroutable))
                    run.results.append(ServerResult(
                        server=failed.result.server,
                        error=(f"segments {sorted(unroutable)} have no "
                               f"untried replica (tried "
                               f"{sorted(failed.tried)}); last error: "
                               f"{failed.result.error}"),
                    ))
                for instance, segments in reroute.items():
                    self.metrics.incr("retries")
                    self.metrics.incr("retry_backoff_ms", backoff_ms)
                    run.retries += 1
                    retry = self._dispatch(run, instance, segments,
                                           failed.tried | {instance},
                                           parent=parent)
                    if retry.span is not None:
                        retry.span.attributes["retry_attempt"] = attempt
                    if retry.call is not None:
                        self._clock.advance_to(retry.call.completed)
                        run.finished_at = max(run.finished_at,
                                              retry.call.completed)
                    if self._settle(run, retry, failures):
                        self.metrics.incr("failovers")
                        self._recovered(run, failed, retry)
        # Not an interval on the broker's clock: the sum of link and
        # queue time over this leg's sub-requests.
        run.record_stage("network", run.network_ms)

    def _settle(self, run: _QueryRun, sub: _SubRequest,
                failures: deque[_SubRequest]) -> bool:
        """Record a settled sub-request (a hedge's loser never settles):
        a reply joins the merge, a failure the failover queue. True for
        a reply."""
        if sub.result.error is None:
            run.results.append(sub.result)
            run.responded.add(sub.instance)
            return True
        failures.append(sub)
        return False

    def _recovered(self, run: _QueryRun, failed: _SubRequest,
                   sub: _SubRequest, how: str = "") -> None:
        """Account ``sub``'s reply as the repair of ``failed``, whether
        a gather retry or a hedge sent it."""
        self.metrics.incr("segments_failed_over", len(sub.segments))
        run.segments_failed_over += len(sub.segments)
        run.recovered_errors.append(
            f"{failed.instance}: {failed.result.error} "
            f"(recovered on {sub.instance}{how})"
        )

    def _maybe_hedge(self, run: _QueryRun, sub: _SubRequest, t0: float,
                     parent: Span | None) -> _SubRequest:
        """Re-issue a straggling sub-request to another replica once its
        latency exceeds the percentile budget; first response wins. A
        sub-request that *failed* outright is the ultimate straggler:
        it is hedged immediately (departing when the failure is known)
        instead of waiting for the gather loop's backoff.

        Returns the winner. The loser is cancelled: its response is
        discarded and it never reaches the merge. In a trace, the hedge
        appears as a sibling rpc span of the primary, and the loser's
        span is marked ``hedge_loser`` (and ``cancelled`` unless it
        failed).

        The hedge's replica joins ``sub.tried``, so that when the
        sub-request still ends up failing, the gather loop's reselect
        excludes the losing hedge replica too.
        """
        if self._latency is None:
            return sub
        failed = sub.result.error is not None
        budget = self._latency.budget_s(run.query.table)
        if not failed and sub.call.completed - t0 <= budget:
            return sub
        if run.hedges >= self._latency.policy.max_hedges_per_query:
            return sub
        reroute, unroutable = self._reselect(run, sub.segments, sub.tried)
        if unroutable or len(reroute) != 1:
            # No single alternate replica hosts the whole segment set;
            # hedging a split would multiply fan-out, so don't.
            return sub
        (alternate, segments), = reroute.items()
        run.hedges += 1
        sub.tried.add(alternate)
        self.metrics.incr("hedges")
        hedge = self._dispatch(
            run, alternate, segments, sub.tried, hedge=True, parent=parent,
            depart_at=sub.call.completed if failed else t0 + budget)
        wins = (hedge.call is not None and hedge.result.error is None
                and (failed or hedge.call.completed < sub.call.completed))
        if failed and not wins:
            # Hedge failed too: the primary's error goes to the gather
            # loop, with both replicas in ``sub.tried``.
            return sub
        if wins:
            self.metrics.incr("hedge_wins")
        if failed:
            # The hedge repaired the failure before the gather loop
            # ever saw it.
            self._recovered(run, sub, hedge, " via hedge")
        else:
            self.metrics.incr("hedges_cancelled")
        winner, loser = (hedge, sub) if wins else (sub, hedge)
        if loser.span is not None:
            if not failed:
                loser.span.status = STATUS_CANCELLED
            loser.span.attributes["hedge_loser"] = True
        if wins and hedge.span is not None:
            hedge.span.attributes["hedge_winner"] = True
        return winner

    def _dispatch(self, run: _QueryRun, instance: str, segments: list[str],
                  tried: set[str], depart_at: float | None = None,
                  hedge: bool = False, parent: Span | None = None,
                  ) -> _SubRequest:
        """Send one sub-request over the transport, mapping transport
        failures (unreachable, overloaded) and an exhausted deadline
        onto error results the merge can degrade around.

        When the query is traced, the sub-request's span context crosses
        the codec boundary with the call (like an HTTP trace header) and
        the server's spans come back attached to the response; this
        method grafts them under an ``rpc`` span with ``network`` /
        ``queue`` / ``execute`` children.
        """
        query, trace = run.query, run.trace
        run.contacted.add(instance)
        self.metrics.incr("hedge_requests" if hedge else "scatter_requests")
        depart = depart_at if depart_at is not None else self._clock.now()
        if run.deadline is not None and depart > run.deadline:
            self.metrics.incr("deadline_exhausted")
            run.deadline_exhausted = True
            if trace is not None:
                span = trace.add_span(
                    "rpc", parent or trace.root, depart, depart,
                    component=self.instance_id, server=instance,
                    hedge=hedge,
                )
                span.set_error("broker deadline exceeded",
                               error_type="DeadlineExceeded")
            return _SubRequest(instance, segments, ServerResult(
                server=instance, error="broker deadline exceeded"),
                None, None, tried)
        if self.health is not None:
            self.health.record_dispatch(instance, now=depart,
                                        probe=instance in run.probes)
        ctx = None
        execute_span_id = None
        if trace is not None:
            # Reserve the server-side execute span's id up front so the
            # server parents its own spans under it while the broker is
            # still waiting for the response.
            execute_span_id = trace.allocate_id()
            ctx = SpanContext(trace_id=trace.trace_id,
                              span_id=execute_span_id, sampled=True)
        call = self._transport.request(
            self.instance_id, instance, "execute",
            run.request, query.table, segments, depart_at=depart,
            trace_ctx=ctx,
        )
        self.metrics.incr("network_link_ms", call.link_s * 1e3)
        self.metrics.incr("queue_wait_ms", call.queue_s * 1e3)
        if call.queue_depth > self.metrics.gauge_value("max_queue_depth"):
            self.metrics.gauge("max_queue_depth", call.queue_depth)
        run.network_ms += (call.link_s + call.queue_s) * 1e3
        span = None
        if trace is not None:
            span = trace.add_span(
                "rpc", parent or trace.root, call.departed, call.completed,
                component=self.instance_id, server=instance,
                segments=len(segments), hedge=hedge,
            )
            trace.add_span(
                "network", span, call.departed, call.arrived,
                component=self.instance_id, server=instance,
                link_ms=call.link_s * 1e3,
                request_bytes=call.request_bytes,
                response_bytes=call.response_bytes,
            )
            if call.handled:
                trace.add_span(
                    "queue", span, call.arrived, call.started,
                    component=instance, queue_depth=call.queue_depth,
                )
                trace.add_span(
                    "execute", span, call.started,
                    call.started + call.service_s,
                    span_id=execute_span_id, component=instance,
                )
                trace.extend(call.remote_spans)
            elif call.rejected:
                rejection = trace.add_span(
                    "queue", span, call.arrived, call.arrived,
                    component=instance, queue_depth=call.queue_depth,
                    rejected=True,
                )
                rejection.status = STATUS_ERROR
        self._observe_pressure(instance, call)
        if call.error is not None:
            if isinstance(call.error, ServerBusyError):
                self.metrics.incr("server_busy_rejections")
                # A full queue is overload, not sickness: it feeds the
                # admission pressure signal, never the health score.
            else:
                self.metrics.incr("servers_unreachable")
                self._observe_health(instance, failure=True,
                                     now=call.completed)
            if span is not None:
                span.set_error(str(call.error),
                               error_type=type(call.error).__name__,
                               rejected=call.rejected)
            return _SubRequest(instance, segments, ServerResult(
                server=instance, error=str(call.error)), call, span, tried)
        result = call.value
        if result.error is not None:
            self.metrics.incr("server_errors")
            self._observe_health(instance, failure=True,
                                 now=call.completed)
            if span is not None:
                span.set_error(result.error, error_type="ServerError")
        else:
            # Injected/simulated latency lives in elapsed_ms, not the
            # transport timing, so score the larger of the two.
            self._observe_health(
                instance, failure=False,
                latency_s=max(call.duration_s, result.elapsed_ms / 1e3),
                now=call.completed,
            )
        return _SubRequest(instance, segments, result, call, span, tried)

    def _observe_pressure(self, instance: str, call: CallResult) -> None:
        """Feed the admission-control pressure signal from this call's
        observed inbound-queue utilization (1.0 on outright rejection)."""
        endpoint = self._transport.endpoint(instance)
        if endpoint is None or endpoint.queue_capacity <= 0:
            return
        utilization = (1.0 if call.rejected
                       else call.queue_depth / endpoint.queue_capacity)
        self.pressure.observe(utilization)

    def _observe_health(self, instance: str, failure: bool, now: float,
                        latency_s: float = 0.0) -> None:
        """Feed the failure detector; mirror transitions into metrics."""
        if self.health is None:
            return
        if failure:
            event = self.health.observe_failure(instance, now)
        else:
            event = self.health.observe_success(instance, latency_s, now)
        if event == EVENT_EJECTED:
            self.metrics.incr("health_ejections")
        elif event == EVENT_HEALED:
            self.metrics.incr("health_heals")

    def _apply_health(self, run: _QueryRun, routing_table):
        """Route-time health filter: segments routed to ejected servers
        move to healthy replicas; each ejected server instead receives
        its segments as a cadence-capped probe when the trickle budget
        allows, and as a *forced* probe when it is the last replica
        standing (correctness beats ejection hygiene)."""
        detector = self.health
        if detector is None:
            return routing_table
        ejected = detector.ejected_set()
        if not ejected:
            return routing_table
        now = self._clock.now()
        healthy: dict[str, list[str]] = {}
        for instance, segments in routing_table.items():
            if instance not in ejected:
                healthy.setdefault(instance, []).extend(segments)
                continue
            if detector.try_probe(instance, now):
                run.probes.add(instance)
                self.metrics.incr("health_probes")
                healthy.setdefault(instance, []).extend(segments)
                continue
            reroute, unroutable = run.strategy.reselect(segments, ejected)
            if reroute:
                self.metrics.incr(
                    "health_reroutes",
                    sum(len(s) for s in reroute.values()))
            for alt, alt_segments in reroute.items():
                healthy.setdefault(alt, []).extend(alt_segments)
            if unroutable:
                # Only ejected replicas host these segments: probe the
                # original holder out of cadence rather than return an
                # unroutable partial answer.
                detector.try_probe(instance, now, force=True)
                run.probes.add(instance)
                self.metrics.incr("health_probes")
                healthy.setdefault(instance, []).extend(unroutable)
        return healthy

    def _reselect(self, run: _QueryRun, segments: list[str],
                  tried: set[str]
                  ) -> tuple[dict[str, list[str]], list[str]]:
        """``strategy.reselect`` that also avoids ejected servers,
        falling back to them (as forced probes) when they hold the only
        remaining replica for some segments."""
        if self.health is None:
            return run.strategy.reselect(segments, tried)
        ejected = self.health.ejected_set()
        if not ejected:
            return run.strategy.reselect(segments, tried)
        reroute, unroutable = run.strategy.reselect(segments, tried | ejected)
        if unroutable:
            fallback, unroutable = run.strategy.reselect(unroutable, tried)
            now = self._clock.now()
            for instance, fsegs in fallback.items():
                if self.health.is_ejected(instance):
                    self.health.try_probe(instance, now, force=True)
                    run.probes.add(instance)
                    self.metrics.incr("health_probes")
                reroute.setdefault(instance, []).extend(fsegs)
        return reroute, unroutable

    @staticmethod
    def _prune(view: _TableView, query: Query, routing_table):
        """Drop segments that provably cannot match the filter before
        contacting any server: the query's compiled prune check held
        against each segment's summary — the time range and
        distinct-value bloom filters its record publishes (never a false
        negative, so pruning is always safe). Servers left with no
        segments are not contacted at all. Returns the pruned routing
        table and the number of segments dropped."""
        check = compile_pruner(query, view.config.schema)
        time_column = view.config.time_column
        if not check.constraints and all(leaf.column != time_column
                                         for leaf in check.leaves):
            return routing_table, 0  # nothing a record could rule out
        pruned = 0
        out: dict[str, list[str]] = {}
        for instance, segments in routing_table.items():
            kept = [segment for segment in segments
                    if prune_reason(view.summary(segment), check) is None]
            pruned += len(segments) - len(kept)
            if kept:
                out[instance] = kept
        return out, pruned

    def _record_query_log(self, query: Query,
                          results: list[ServerResult]
                          ) -> QueryLogEntry | None:
        """Record the query's filter footprint; the controller's
        auto-index analysis mines this log (§5.2). Returns the entry so
        the result cache can replay it on hits."""
        if query.where is None:
            return None
        entries = sum(r.stats.num_entries_scanned_in_filter
                      for r in results if r.error is None)
        docs = sum(r.stats.num_docs_scanned
                   for r in results if r.error is None)
        columns = frozenset(predicate_columns(query.where))
        entry = QueryLogEntry(
            table=query.table,
            filter_columns=self._filter_column_sets.setdefault(columns, columns),
            entries_scanned_in_filter=entries,
            docs_scanned=docs,
        )
        self._log_queries([entry])
        return entry

    def _log_queries(self, entries: list[QueryLogEntry]) -> None:
        self.query_log.extend(entries)
        if len(self.query_log) > self.QUERY_LOG_LIMIT:
            del self.query_log[:len(self.query_log) // 2]

    def explain(self, pql: str | Query) -> dict[str, dict[str, str]]:
        """Per-server, per-segment physical plan descriptions for a
        query, without executing it."""
        out: dict[str, dict[str, str]] = {}
        for physical_query in self._plan(pql)[1]:
            strategy = self._routed(physical_query.table).strategy
            try:
                routing_table = strategy.route(physical_query)
            except RoutingError:
                continue
            for instance, segments in routing_table.items():
                server = self._helix.participant(instance)
                if server is None or not hasattr(server, "explain"):
                    continue
                try:
                    plans = self._transport.call(
                        self.instance_id, instance, "explain",
                        physical_query, physical_query.table, segments,
                    )
                except ClusterError:
                    continue
                out.setdefault(instance, {}).update(plans)
        return out

    def slow_queries(self, k: int | None = None) -> list[dict]:
        """Top-K traced queries by duration (the broker's slow-query
        log), newest window first. Only traced queries appear: turn up
        the tracer's sample rate or use ``OPTION(trace=true)``."""
        return self.tracer.slow_log.summaries(k)

    def fanout_for(self, pql: str | Query) -> int:
        """Number of servers one execution of this query would contact
        (instrumentation for the Fig 16 routing comparison)."""
        servers: set[str] = set()
        for physical_query in self._plan(pql)[1]:
            strategy = self._routed(physical_query.table).strategy
            servers.update(strategy.route(physical_query))
        return len(servers)
