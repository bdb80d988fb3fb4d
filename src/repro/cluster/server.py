"""Pinot servers (§3.2): segment hosting, state transitions, realtime
consumption, and per-server query execution.

Servers are Helix participants. They execute the segment state machine
(Fig 3): fetching segments from the object store on OFFLINE→ONLINE
(Fig 4), creating Kafka consumers on OFFLINE→CONSUMING, and promoting or
replacing local data on CONSUMING→ONLINE according to the completion
protocol's verdict. Local storage is a cache — a blank server can
always rebuild itself from the object store and Kafka (§3.4).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.cache.partials import SegmentPartialCache
from repro.cache.pruner import prune_reason
from repro.cluster.completion import Instruction
from repro.cluster.objectstore import ObjectStore
from repro.cluster.table import (
    TableConfig,
    find_table_config,
    read_realtime_record,
    read_segment_record,
    read_table_config,
)
from repro.engine.executor import execute_segment, prune_result
from repro.engine.merge import combine_segment_results
from repro.engine.planner import CompiledQuery, compile_query, plan_segment
from repro.engine.results import SegmentResult, ServerResult
from repro.errors import ClusterError, PinotError
from repro.faults import FaultInjector, run_with_faults
from repro.helix.manager import HelixManager
from repro.helix.statemachine import SegmentState
from repro.kafka.broker import KafkaConsumer, RecordBatch, SimKafka
from repro.obs import propagation
from repro.obs.metrics import Metrics
from repro.obs.trace import STATUS_ERROR, STATUS_OK
from repro.pql.ast_nodes import Query
from repro.segment.mutable import MutableSegment
from repro.segment.segment import ImmutableSegment
from repro.store import DEEPSTORE_ADDRESS, SegmentCache
from repro.upsert.index import TableUpsertManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.controller import Controller


@dataclass
class _ConsumingSegment:
    """One replica of a realtime segment in the CONSUMING state."""

    table: str
    name: str
    partition: int
    mutable: MutableSegment
    consumer: KafkaConsumer
    config: TableConfig
    ticks: int = 0
    reached_end_criteria: bool = False
    sealed: ImmutableSegment | None = None
    sealed_offset: int | None = None

    @property
    def offset(self) -> int:
        return self.consumer.position


class ServerInstance:
    """One Pinot server."""

    def __init__(self, instance_id: str, helix: HelixManager,
                 object_store: ObjectStore, kafka: SimKafka | None = None,
                 controller_resolver: Callable[[], "Controller"] | None = None,
                 default_vectorized: bool = True,
                 store_budget_bytes: int | None = None,
                 store_policy: str = "lru"):
        self.instance_id = instance_id
        #: Engine default for queries that carry no
        #: ``OPTION(vectorized=...)``: batch kernels (True) or the
        #: row-at-a-time scalar oracle (False) — docs/ENGINE.md.
        self.default_vectorized = default_vectorized
        self._helix = helix
        self._store = object_store
        self._kafka = kafka
        self._controller_resolver = controller_resolver
        #: (table, segment) -> consuming replica state.
        self._consuming: dict[tuple[str, str], _ConsumingSegment] = {}
        #: Fault-injection hooks (crash / error / slow / flaky), seeded
        #: per-instance so fault schedules are deterministic.
        self.faults = FaultInjector(seed=zlib.crc32(instance_id.encode()))
        self.queries_executed = 0
        #: Per-server counters (segments_pruned, segments_scanned,
        #: store_*).
        self.metrics = Metrics()
        #: Hosted committed segments: sized refs over the deep store,
        #: loaded lazily and evicted under the byte budget
        #: (repro.store, docs/STORAGE.md). ``None`` budget keeps every
        #: hosted segment resident — the pre-tiering behavior.
        self.segment_cache = SegmentCache(
            budget_bytes=store_budget_bytes,
            policy=store_policy,
            on_evict=self._on_store_evict,
            metrics=self.metrics,
        )
        #: Partials of sealed segments for repeated query texts
        #: (repro.cache.partials).
        self.partial_cache = SegmentPartialCache(self.metrics)
        #: table -> primary-key upsert/dedup index (repro.upsert);
        #: created lazily from the table config on first contact.
        self._upsert: dict[str, TableUpsertManager] = {}
        #: Tables known to have no upsert config (lookup cache — a
        #: table's upsert setting is immutable once created).
        self._no_upsert: set[str] = set()

    # -- introspection ------------------------------------------------------

    def hosted_segments(self, table: str) -> list[str]:
        online = self.segment_cache.names(table)
        consuming = [s for (t, s) in self._consuming if t == table]
        return sorted(online + consuming)

    def num_docs(self, table: str) -> int:
        # Doc counts come from the sized refs, so the answer is exact
        # whether or not the segments are resident.
        total = self.segment_cache.num_docs(table)
        total += sum(
            consuming.mutable.num_docs
            for (t, __), consuming in self._consuming.items() if t == table
        )
        return total

    def segment(self, table: str, name: str) -> ImmutableSegment:
        """The hosted segment's loaded form (cold-loading if needed)."""
        if (table, name) not in self.segment_cache:
            raise ClusterError(
                f"server {self.instance_id!r} does not host "
                f"{table}/{name}"
            )
        loaded = self.segment_cache.pin(table, name, self._fetch_segment)
        self.segment_cache.unpin(table, name)
        return loaded

    def stream_progress(self) -> int:
        """Total stream offset consumed across this server's consuming
        segments — a progress signal that advances even when every
        polled row is dropped (dedup), unlike stored doc counts."""
        return sum(consuming.offset
                   for consuming in self._consuming.values())

    def consuming_offset(self, table: str, segment: str) -> int | None:
        """The stream offset this replica has consumed up to, or None
        when unknown (not consuming here, or the server is down).
        Brokers fingerprint these offsets into result-cache keys; an
        unknown offset makes the broker bypass caching entirely."""
        if self.faults.crashed:
            return None
        consuming = self._consuming.get((table, segment))
        return consuming.offset if consuming is not None else None

    # -- Helix participant interface ----------------------------------------

    def process_transition(self, resource: str, segment: str,
                           from_state: SegmentState,
                           to_state: SegmentState) -> None:
        key = (resource, segment)
        if to_state is SegmentState.ONLINE:
            if from_state is SegmentState.CONSUMING:
                self._promote_consuming(resource, segment)
            else:
                self._load_from_store(resource, segment)
        elif to_state is SegmentState.CONSUMING:
            self._start_consuming(resource, segment)
        elif to_state in (SegmentState.OFFLINE, SegmentState.DROPPED):
            self.segment_cache.drop(resource, segment)
            self._consuming.pop(key, None)
            self._on_segment_removed(resource)
        else:
            raise ClusterError(f"unsupported target state {to_state}")

    def _on_store_evict(self, table: str, segment: str) -> None:
        """A resident segment was evicted under memory pressure (or
        tiered off): its decoded columns went with it, and the table's
        epoch moves (broker result-cache keys for the table rotate)."""
        self._helix.bump_epoch(table)

    def _on_segment_removed(self, table: str) -> None:
        # Un-applying one segment's rows from a PK index is not possible
        # (a removed winner must resurrect the runner-up, which the
        # winner map no longer knows) — rebuild from what remains.
        if table in self._upsert:
            self._rebuild_upsert_index(table)

    def _load_from_store(self, table: str, segment: str) -> None:
        """OFFLINE -> ONLINE: start hosting a committed segment.

        Plain tables with published routing metadata register a lazy
        sized ref — the payload stays in the deep store until the first
        query pins it (tiered storage). Upsert/dedup tables and
        segments without metadata load eagerly: the PK index needs the
        rows now, and an unsized ref cannot be budget-accounted."""
        manager = self.upsert_manager(table)
        ref = self._segment_ref(table, segment)
        if manager is None and ref is not None:
            size_bytes, num_docs = ref
            self.segment_cache.register(table, segment,
                                        size_bytes=size_bytes,
                                        num_docs=num_docs)
            return
        loaded = self._fetch_segment(table, segment)
        self.segment_cache.register(
            table, segment, size_bytes=loaded.estimated_size_bytes(),
            num_docs=loaded.num_docs, segment=loaded,
        )
        if manager is None:
            return
        if manager.bitmap_length(segment) > loaded.num_docs:
            # Local consumption ran past the authoritative copy before a
            # DISCARD verdict: the index attributes rows to docIds this
            # segment does not contain. Replay everything hosted.
            self._rebuild_upsert_index(table)
            return
        if manager.apply_segment(loaded):
            self._publish_upsert_state(table)

    def _segment_ref(self, table: str, segment: str) -> tuple[int, int] | None:
        """(size_bytes, num_docs) from published segment metadata, or
        None when the controller never published any (bare unit-test
        setups, pre-commit realtime segments)."""
        meta = read_segment_record(self._helix, table, segment)
        size_bytes = meta.get("size_bytes")
        num_docs = meta.get("num_docs")
        if size_bytes is None or num_docs is None:
            return None
        return int(size_bytes), int(num_docs)

    def _fetch_segment(self, table: str, segment: str) -> ImmutableSegment:
        """Download one segment from the deep store.

        When the cluster transport exposes a ``deepstore`` endpoint the
        download is a real nested RPC: link latency/bandwidth/drop
        models apply on the virtual timeline and the fetch extends the
        enclosing handler's service time (a cold replica is visibly
        slow to the broker — exactly what hedging exists for). The call
        is traced as a ``segment_load`` span when a sampled trace
        context is active. Bare setups without the endpoint read the
        object store directly."""
        transport = self._helix.transport
        if transport.endpoint(DEEPSTORE_ADDRESS) is None:
            loaded = self._store.get(table, segment)
            self._reconcile_schema(table, loaded)
            return loaded
        recorder = propagation.current()
        span = (recorder.start("segment_load", segment=segment)
                if recorder is not None else None)
        result = transport.subcall(self.instance_id, DEEPSTORE_ADDRESS,
                                   "fetch", table, segment)
        self.metrics.incr("store_cold_fetches")
        self.metrics.record_stage("segment_load",
                                  result.duration_s * 1000.0)
        if span is not None and recorder is not None:
            if result.error is not None:
                span.attributes["error"] = str(result.error)
            recorder.end(span,
                         STATUS_OK if result.error is None else STATUS_ERROR)
            # Place the span on the fetch's virtual interval: the RPC's
            # modelled latencies, not the negligible real time spent
            # issuing it.
            span.start_s = result.departed
            span.end_s = result.completed
        loaded = result.unwrap()
        if span is not None:
            span.attributes["bytes"] = loaded.estimated_size_bytes()
        self._reconcile_schema(table, loaded)
        return loaded

    def _reconcile_schema(self, table: str, segment: ImmutableSegment) -> None:
        """Re-apply schema evolution to a freshly downloaded segment:
        columns added after the segment was built (§5.2) exist only as
        virtual columns on loaded copies, so a cold reload must recreate
        them or queries on the new column would fail after an evict.
        A segment whose schema then equals the table's shares its
        object."""
        config = find_table_config(self._helix, table)
        if config is None:
            return
        schema = config.schema
        for name in schema.column_names:
            if not segment.has_column(name):
                self._add_virtual_column(segment, schema.field(name))
        if segment.schema == schema:
            # One schema object per table: a query compiled for it binds
            # to every loaded segment without comparing schemas.
            segment.schema = schema

    def _promote_consuming(self, table: str, segment: str) -> None:
        """CONSUMING → ONLINE: keep local sealed data when it matches the
        committed copy (KEEP/COMMIT), otherwise download (DISCARD)."""
        key = (table, segment)
        consuming = self._consuming.pop(key, None)
        committed_offset = (
            read_realtime_record(self._helix, table, segment) or {}
        ).get("end_offset")
        if (
            consuming is not None
            and consuming.sealed is not None
            and consuming.sealed_offset == committed_offset
        ):
            # Seal handoff: local rows == authoritative rows, and seal
            # preserves docId order, so the upsert bitmaps keyed by this
            # segment name stay valid verbatim — the atomic handoff.
            self.segment_cache.register(
                table, segment,
                size_bytes=consuming.sealed.estimated_size_bytes(),
                num_docs=consuming.sealed.num_docs,
                segment=consuming.sealed,
            )
            return
        overran = (
            consuming is not None
            and committed_offset is not None
            and consuming.offset > committed_offset
        )
        self._load_from_store(table, segment)
        if overran:
            # DISCARD after consuming past the committed end: the PK
            # index saw rows the authoritative copy does not contain
            # (they re-arrive in the next sequence). Replay from storage.
            self._rebuild_upsert_index(table)

    def _start_consuming(self, table: str, segment: str) -> None:
        if self._kafka is None:
            raise ClusterError(
                f"server {self.instance_id!r} has no Kafka connection"
            )
        meta = read_realtime_record(self._helix, table, segment)
        if meta is None:
            raise ClusterError(
                f"no realtime metadata for {table}/{segment}"
            )
        config = read_table_config(self._helix, table)
        assert config.stream is not None
        partition = meta["partition"]
        start_offset = meta["start_offset"]
        consumer = KafkaConsumer(self._kafka, config.stream.topic,
                                 partition, start_offset)
        mutable = MutableSegment(segment, table, config.schema,
                                 config.segment_config)
        mutable.start_offset = start_offset
        previous = self._consuming.get((table, segment))
        self._consuming[(table, segment)] = _ConsumingSegment(
            table=table, name=segment, partition=partition,
            mutable=mutable, consumer=consumer, config=config,
        )
        manager = self.upsert_manager(table)
        if manager is not None and (previous is not None
                                    or manager.tracks(segment)):
            # Re-seated on a segment a prior incarnation already fed
            # into the PK index: drop that stale state and replay.
            self._rebuild_upsert_index(table)

    # -- upsert/dedup index lifecycle ----------------------------------------

    def upsert_manager(self, table: str) -> TableUpsertManager | None:
        """This server's PK index for ``table``, or None for plain
        tables (and tables whose config is not registered, e.g. bare
        unit-test setups)."""
        manager = self._upsert.get(table)
        if manager is not None:
            return manager
        if table in self._no_upsert:
            return None
        config = find_table_config(self._helix, table)
        upsert = config.upsert if config is not None else None
        if upsert is None:
            self._no_upsert.add(table)
            return None
        manager = TableUpsertManager(table, upsert, metrics=self.metrics)

        def sum_keys_gauge() -> None:
            # One gauge per server: sum over every upsert table hosted
            # here, so two managers sharing the metrics object don't
            # clobber each other's value.
            self.metrics.gauge(
                "upsert_keys_tracked",
                sum(m.keys_tracked for m in self._upsert.values()),
            )

        manager.gauge_hook = sum_keys_gauge
        self._upsert[table] = manager
        return manager

    def _rebuild_upsert_index(self, table: str) -> None:
        """Rebuild the PK index from everything this server hosts —
        restart/failover/rebalance recovery. Pure replay of stored rows,
        so every replica's rebuild converges to the same state."""
        manager = self._upsert.get(table)
        if manager is None:
            return
        # Pin everything hosted for the replay (cold segments load);
        # the list keeps the references alive past the unpins.
        names = self.segment_cache.names(table)
        segments = [self.segment_cache.pin(table, name, self._fetch_segment)
                    for name in names]
        try:
            consuming = [
                (c.name, c.mutable.records())
                for (t, __), c in self._consuming.items() if t == table
            ]
            manager.rebuild(segments, consuming)
        finally:
            for name in names:
                self.segment_cache.unpin(table, name)
        self._publish_upsert_state(table)

    def _publish_upsert_state(self, table: str) -> None:
        """Bump the table's epoch: a valid-docId bitmap over
        already-committed data changed, so broker result-cache entries
        for this table must never be served again."""
        self.metrics.incr("upsert_invalidations")
        self._helix.bump_epoch(table)

    # -- realtime consumption loop --------------------------------------------

    def consume_tick(self) -> None:
        """Advance every consuming segment by one poll, and run the
        completion protocol for replicas that reached end criteria."""
        if self.faults.crashed:
            return  # a crashed server stops consuming and polling
        for consuming in list(self._consuming.values()):
            if not consuming.reached_end_criteria:
                self._poll_once(consuming)
            if consuming.reached_end_criteria:
                self._run_completion_step(consuming)

    def _index_batch(self, consuming: _ConsumingSegment,
                     batch: RecordBatch) -> None:
        """Index a polled batch into the consuming mutable segment,
        applying the table's upsert/dedup semantics row by row."""
        manager = self.upsert_manager(consuming.table)
        mutable = consuming.mutable
        if manager is None:
            mutable.index_all(batch.values)
            return
        invalidated = False
        for value in batch.values:
            row = mutable.schema.normalize(value)
            if manager.config.is_dedup:
                if not manager.admit(consuming.partition, row):
                    self.metrics.incr("dedup_rows_dropped")
                    continue
                mutable.index_row(row)
                continue
            doc_id = mutable.num_docs
            mutable.index_row(row)
            if manager.apply(consuming.name, doc_id, row):
                invalidated = True
        if invalidated:
            # A row in this consuming segment superseded one inside an
            # already-committed segment: cached results over committed
            # data just went stale.
            self._publish_upsert_state(consuming.table)

    def _poll_once(self, consuming: _ConsumingSegment) -> None:
        stream = consuming.config.stream
        assert stream is not None
        self._index_batch(consuming,
                          consuming.consumer.poll(stream.records_per_poll))
        consuming.ticks += 1
        if consuming.mutable.num_docs >= stream.flush_threshold_rows:
            consuming.reached_end_criteria = True
        elif (stream.flush_threshold_ticks is not None
              and consuming.ticks >= stream.flush_threshold_ticks
              and consuming.mutable.num_docs > 0):
            consuming.reached_end_criteria = True

    def _run_completion_step(self, consuming: _ConsumingSegment) -> None:
        if self._controller_resolver is None:
            return
        controller = self._controller_resolver()
        try:
            response = self._helix.transport.call(
                self.instance_id, controller.instance_id,
                "segment_consumed", consuming.table, consuming.name,
                self.instance_id, consuming.offset,
            )
        except ClusterError:
            return  # controller unreachable: poll again next tick
        if response.instruction is Instruction.HOLD:
            return
        if response.instruction is Instruction.NOTLEADER:
            return  # resolver returns the current leader next tick
        if response.instruction is Instruction.CATCHUP:
            assert response.offset is not None
            from repro.errors import IngestionError

            while consuming.offset < response.offset:
                try:
                    batch = consuming.consumer.poll_until(response.offset)
                except IngestionError:
                    # Kafka retention already expired this range; keep
                    # polling the controller — once another replica has
                    # committed we will be told to DISCARD and fetch the
                    # authoritative copy instead (§3.3.6).
                    return
                if not batch:
                    break
                self._index_batch(consuming, batch)
            return
        if response.instruction is Instruction.KEEP:
            self._seal(consuming)
            return
        if response.instruction is Instruction.DISCARD:
            consuming.sealed = None
            consuming.sealed_offset = None
            return
        if response.instruction is Instruction.COMMIT:
            if self.faults.before_commit():
                # Died mid-commit: the controller never hears from this
                # replica again. Recovery runs when the death is
                # observed (Controller.handle_server_death) and a new
                # committer is elected among the survivors (§3.3.6).
                return
            self._seal(consuming)
            assert consuming.sealed is not None
            try:
                # The sealed segment rides the transport's blob side
                # channel — the simulated form of the committer's
                # segment upload (§3.3.6, Fig 8).
                self._helix.transport.call(
                    self.instance_id, controller.instance_id,
                    "commit_segment", consuming.table, consuming.name,
                    self.instance_id, consuming.offset, consuming.sealed,
                )
            except ClusterError:
                return  # commit lost in transit: re-poll next tick
            return
        raise ClusterError(f"unknown instruction {response.instruction}")

    def _seal(self, consuming: _ConsumingSegment) -> None:
        if consuming.sealed is None or (
            consuming.sealed_offset != consuming.offset
        ):
            consuming.sealed = consuming.mutable.seal()
            consuming.sealed_offset = consuming.offset
            consuming.mutable.end_offset = consuming.offset

    # -- schema evolution (§5.2) ---------------------------------------------

    def apply_new_column(self, table: str, spec) -> None:
        """Expose a newly added column on already-loaded segments as a
        default-valued virtual column, without reloading anything.
        Non-resident (evicted / never-loaded) segments are reconciled
        against the table schema when they are next fetched."""
        # ``SELECT *`` widens on the segments changed in place here.
        self.partial_cache.drop_table(table)
        for entry in self.segment_cache.entries(table):
            if entry.segment is not None:
                self._add_virtual_column(entry.segment, spec)
        for (t, __), consuming in self._consuming.items():
            if t == table and spec.name not in consuming.mutable.schema:
                consuming.mutable.schema = (
                    consuming.mutable.schema.with_column(spec)
                )
                consuming.mutable.invalidate_snapshot()

    @staticmethod
    def _add_virtual_column(segment: ImmutableSegment, spec) -> None:
        import numpy as np

        from repro.segment.bitpack import bits_required
        from repro.segment.dictionary import Dictionary
        from repro.segment.forward import SingleValueForwardIndex
        from repro.segment.metadata import ColumnMetadata
        from repro.segment.segment import Column

        if segment.has_column(spec.name):
            return
        default = spec.default
        dictionary = Dictionary(spec.dtype, [default])
        forward = SingleValueForwardIndex.from_dict_ids(
            np.zeros(segment.num_docs, dtype=np.uint32)
        )
        meta = ColumnMetadata(
            name=spec.name, dtype=spec.dtype, role=spec.role,
            cardinality=1, min_value=default, max_value=default,
            total_docs=segment.num_docs, total_entries=segment.num_docs,
            bit_width=bits_required(0),
        )
        segment.add_virtual_column(Column(spec, dictionary, forward,
                                          meta))
        segment.schema = segment.schema.with_column(spec)

    # -- retention tiering (docs/STORAGE.md) -----------------------------------

    def apply_tiering(self, table: str, segment: str) -> None:
        """Controller RPC: the segment aged past the table's tiering
        threshold and is now remote-only — drop any resident payload and
        never keep it resident beyond individual query pins."""
        if (table, segment) in self.segment_cache:
            self.segment_cache.set_remote_only(table, segment)

    # -- query execution (§3.3.4) -----------------------------------------------

    def execute(self, query: Query, table: str,
                segment_names: list[str]) -> ServerResult:
        """Execute ``query`` on the given subset of hosted segments.

        Fault-injection decisions and the per-query timeout
        (PQL ``OPTION(timeoutMs=...)``) are applied by
        :func:`run_with_faults`: the timeout is honored against measured
        execution time plus injected latency, and a mid-execution
        deadline check stops scanning further segments once the budget
        is spent (§3.3.3 step 7 — the broker treats the timed-out
        sub-request like any other failed one).
        """
        self.queries_executed += 1
        return run_with_faults(
            self.faults, self.instance_id, query,
            lambda deadline: self._execute_segments(query, table,
                                                    segment_names, deadline),
        )

    def _execute_segments(self, query: Query, table: str,
                          segment_names: list[str],
                          deadline: float | None) -> ServerResult:
        #: The query compiled once, against the first segment executed;
        #: each segment only binds it (docs/ENGINE.md).
        compiled: CompiledQuery | None = None
        vectorized = bool(
            query.options.get("vectorized", self.default_vectorized)
        )
        #: Ambient span recorder, present when the broker propagated a
        #: sampled trace context with this sub-request (repro.obs).
        recorder = propagation.current()
        upsert = self.upsert_manager(table)
        #: The text keying this query's sealed-segment partials, or None
        #: when they are neither read nor stored: a text seen here for
        #: the first time, ``skipCache`` (the ground-truth path) and
        #: upsert/dedup tables, whose valid docs change a sealed
        #: segment's answer without changing the segment.
        text = (self.partial_cache.admit(query)
                if upsert is None and not query.options.get("skipCache")
                else None)
        skip_prune = bool(query.options.get("skipPrune"))
        results: list[SegmentResult] = []
        span = None
        #: Segments pinned resident for the duration of this query —
        #: eviction under pressure must never pull a segment out from
        #: under an executing scan.
        pinned: list[tuple[str, str]] = []
        try:
            for name in segment_names:
                if (deadline is not None
                        and time.perf_counter() > deadline):
                    break  # run_with_faults turns this into a timeout
                segment = self._resolve_for_query(table, name, pinned)
                if recorder is not None:
                    span = recorder.start("segment", segment=name)
                if segment is None:
                    # Empty consuming segment: nothing consumed yet.
                    if span is not None:
                        span.attributes["empty"] = True
                        recorder.end(span)
                        span = None
                    continue
                # Consuming snapshots are never cached: only a segment
                # this server hosts sealed is.
                key = ((table, name, text, vectorized, skip_prune)
                       if text is not None and (table, name)
                       in self.segment_cache else None)
                segment_result = (self.partial_cache.get(key, segment)
                                  if key is not None else None)
                if segment_result is not None:
                    # Executed for this exact text before, so the prune
                    # verdict is known: it was not pruned.
                    if span is not None:
                        span.attributes["cached"] = True
                else:
                    if compiled is None:
                        compiled = compile_query(query, segment.schema)
                    reason = prune_reason(segment.metadata, compiled.pruner)
                    if reason is not None:
                        self.metrics.incr("segments_pruned")
                        results.append(prune_result(segment, query))
                        if span is not None:
                            span.attributes["pruned"] = True
                            span.attributes["prune_reason"] = reason
                            recorder.end(span)
                            span = None
                        continue
                    self.metrics.incr("segments_scanned")
                    valid_docs = (
                        upsert.selection_for(name, segment.num_docs)
                        if upsert is not None else None
                    )
                    if span is not None and valid_docs is not None:
                        span.attributes["valid_docs"] = valid_docs.count
                    segment_result = execute_segment(segment, compiled,
                                                     vectorized=vectorized,
                                                     valid_docs=valid_docs)
                    if key is not None:
                        self.partial_cache.put(key, segment, segment_result)
                results.append(segment_result)
                if span is not None:
                    span.attributes["docs_scanned"] = (
                        segment_result.stats.num_docs_scanned
                    )
                    span.attributes["total_docs"] = (
                        segment_result.stats.total_docs
                    )
                    recorder.end(span)
                    span = None
        except PinotError as exc:
            if recorder is not None and span is not None:
                span.attributes["error"] = str(exc)
                recorder.end(span, STATUS_ERROR)
            return ServerResult(server=self.instance_id, error=str(exc))
        finally:
            for t, n in pinned:
                self.segment_cache.unpin(t, n)
        return combine_segment_results(query, results, self.instance_id)

    def explain(self, query: Query, table: str,
                segment_names: list[str]) -> dict[str, str]:
        """Describe the physical plan per segment (plans differ segment
        to segment by index availability, §3.3.4)."""
        compiled: CompiledQuery | None = None
        plans = {}
        for name in segment_names:
            segment = self._resolve_for_query(table, name)
            if segment is None:
                plans[name] = "EMPTY (no rows consumed yet)"
                continue
            if compiled is None:
                compiled = compile_query(query, segment.schema)
            reason = prune_reason(segment.metadata, compiled.pruner)
            plans[name] = (f"PRUNED ({reason})" if reason is not None
                           else plan_segment(segment, compiled).describe())
        return plans

    def _resolve_for_query(
        self, table: str, name: str,
        pinned: list[tuple[str, str]] | None = None,
    ) -> ImmutableSegment | None:
        """The loaded form of one queried segment, cold-fetching lazy
        refs. With ``pinned``, hosted segments stay pinned (caller
        unpins after the query); without it the pin is released
        immediately (explain/introspection paths)."""
        key = (table, name)
        if key in self.segment_cache:
            segment = self.segment_cache.pin(table, name,
                                             self._fetch_segment)
            if pinned is None:
                self.segment_cache.unpin(table, name)
            else:
                pinned.append(key)
            return segment
        if key in self._consuming:
            return self._consuming[key].mutable.snapshot()
        raise ClusterError(
            f"server {self.instance_id!r} asked for unknown segment "
            f"{table}/{name}"
        )


def realtime_segment_name(table: str, partition: int, sequence: int) -> str:
    return f"{table}__{partition}__{sequence}"


def parse_realtime_segment_name(name: str) -> tuple[str, int, int]:
    table, partition, sequence = name.rsplit("__", 2)
    return table, int(partition), int(sequence)
