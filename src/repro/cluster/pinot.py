"""The in-process Pinot cluster facade.

Wires together the full system of §3.2 — Zookeeper, the object store,
Kafka, three controllers (one leader), N servers, brokers, and minions —
as plain Python objects communicating through the simulated Zookeeper
and the ``repro.net`` transport standing in for HTTP/Netty RPC (every
query sub-request, completion poll, and Helix transition is a serialized
message over modelled links on a shared virtual clock).

This is the main public entry point::

    cluster = PinotCluster(num_servers=4)
    cluster.create_table(TableConfig.offline("events", schema))
    cluster.upload_records("events", records)
    response = cluster.execute("SELECT count(*) FROM events")
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.cluster.broker import BrokerInstance
from repro.cluster.controller import SERVER_TAG, Controller
from repro.cluster.health import HealthPolicy
from repro.cluster.minion import MinionInstance
from repro.cluster.objectstore import MemoryObjectStore, ObjectStore
from repro.cluster.server import ServerInstance
from repro.cluster.table import TableConfig, TableType, table_exists
from repro.cluster.tenant import TenantQuotaManager
from repro.engine.results import BrokerResponse
from repro.errors import ClusterError
from repro.helix.manager import HelixManager
from repro.kafka.broker import SimKafka
from repro.net import HedgePolicy, SimClock, Transport
from repro.obs.metrics import MetricsRegistry, runtime_metrics
from repro.obs.trace import Tracer
from repro.kafka.partitioner import kafka_partition
from repro.segment.builder import SegmentBuilder
from repro.segment.segment import ImmutableSegment
from repro.store import DEEPSTORE_ADDRESS, DeepStoreService
from repro.store.remote import DEEPSTORE_QUEUE_CAPACITY
from repro.zk.store import ZkStore


class PinotCluster:
    """A complete single-process Pinot deployment."""

    def __init__(self, num_servers: int = 3, num_brokers: int = 1,
                 num_controllers: int = 3, num_minions: int = 1,
                 object_store: ObjectStore | None = None,
                 seed: int = 0,
                 quotas: TenantQuotaManager | None = None,
                 clock: SimClock | None = None,
                 transport: Transport | None = None,
                 hedging: HedgePolicy | None = None,
                 trace_sample_rate: float = 0.0,
                 default_vectorized: bool = True,
                 store_budget_bytes: int | None = None,
                 store_policy: str = "lru",
                 failure_detector: HealthPolicy | None = None,
                 use_approximate_function: bool = False,
                 approx_threshold: int = 10_000):
        if num_servers < 1 or num_brokers < 1 or num_controllers < 1:
            raise ClusterError("need at least one of each component")
        #: Per-server segment-cache byte budget and eviction policy
        #: (repro.store, docs/STORAGE.md). ``None`` keeps every hosted
        #: segment resident.
        self.store_budget_bytes = store_budget_bytes
        self.store_policy = store_policy
        #: Cluster-wide engine default for servers created here and by
        #: :meth:`add_server` (overridable per query with
        #: ``OPTION(vectorized=...)``).
        self.default_vectorized = default_vectorized
        self.zk = ZkStore()
        self.kafka = SimKafka()
        self.object_store = object_store or MemoryObjectStore()
        #: The shared virtual clock and message fabric. Pass a manual
        #: ``SimClock(auto_advance=False)`` for fully deterministic
        #: timing, or a pre-configured :class:`Transport` to model link
        #: latencies and bounded server queues.
        self.clock = clock if clock is not None else (
            transport.clock if transport is not None else SimClock()
        )
        self.net = transport if transport is not None else Transport(
            self.clock, seed=seed
        )
        self.helix = HelixManager(self.zk, "pinot", transport=self.net)
        # The deep store is an addressable service on the fabric, so
        # cold segment fetches are real timed RPCs (give the address a
        # LinkModel to shape cold-read latency/bandwidth).
        if self.net.endpoint(DEEPSTORE_ADDRESS) is None:
            self.net.register(DEEPSTORE_ADDRESS,
                              DeepStoreService(self.object_store),
                              queue_capacity=DEEPSTORE_QUEUE_CAPACITY)
        self.quotas = quotas if quotas is not None else TenantQuotaManager(
            default_capacity=1e12, default_refill_rate=1e12
        )

        self.controllers = [
            Controller(f"controller-{i}", self.helix, self.object_store,
                       self.kafka)
            for i in range(num_controllers)
        ]
        for controller in self.controllers:
            controller.start()

        #: One labeled registry over every component's counters (plus
        #: the process-wide runtime sink for codec/config fallbacks);
        #: export with ``metrics_registry.export_text()/export_json()``.
        self.metrics_registry = MetricsRegistry()
        self.servers = [self._new_server(f"server-{i}")
                        for i in range(num_servers)]

        self.brokers = [
            BrokerInstance(f"broker-{i}", self.helix, self.quotas,
                           seed=seed + i, clock=self.clock,
                           hedging=hedging,
                           health=failure_detector,
                           use_approximate_function=use_approximate_function,
                           approx_threshold=approx_threshold,
                           tracer=Tracer(clock=self.clock,
                                         sample_rate=trace_sample_rate,
                                         seed=seed + i,
                                         component=f"broker-{i}"))
            for i in range(num_brokers)
        ]
        self.minions = [
            MinionInstance(f"minion-{i}", self.controllers[0],
                           self.object_store)
            for i in range(num_minions)
        ]
        for broker in self.brokers:
            self.metrics_registry.register("broker", broker.instance_id,
                                           broker.metrics)
        self.metrics_registry.register("runtime", "process",
                                       runtime_metrics)
        self._broker_cursor = 0
        self._segment_sequence: dict[str, int] = {}

    # -- component access -----------------------------------------------------

    def leader_controller(self) -> Controller:
        """The current leader (electing a new one if the old died)."""
        for controller in self.controllers:
            if controller.is_leader:
                return controller
        for controller in self.controllers:
            if controller.try_acquire_leadership():
                return controller
        raise ClusterError("no live controller available")

    def server(self, instance_id: str) -> ServerInstance:
        for server in self.servers:
            if server.instance_id == instance_id:
                return server
        raise ClusterError(f"no such server: {instance_id!r}")

    def _next_broker(self) -> BrokerInstance:
        broker = self.brokers[self._broker_cursor % len(self.brokers)]
        self._broker_cursor += 1
        return broker

    # -- administration ---------------------------------------------------------

    def create_table(self, config: TableConfig) -> None:
        self.leader_controller().create_table(config)

    def create_kafka_topic(self, topic: str, num_partitions: int) -> None:
        self.kafka.create_topic(topic, num_partitions)

    def table_config(self, table: str) -> TableConfig:
        return self.leader_controller().table_config(table)

    # -- offline data path (Hadoop push, §3.3.5) ----------------------------------

    def build_segments(self, table: str,
                       records: Sequence[Mapping[str, Any]],
                       rows_per_segment: int = 100_000) -> list[ImmutableSegment]:
        """Build offline segments the way a Hadoop job would: chunked,
        and grouped by partition for partitioned tables."""
        config = self.table_config(table)
        groups: dict[int, list[Mapping[str, Any]]]
        if config.partition is not None:
            groups = {}
            for record in records:
                partition = kafka_partition(
                    record[config.partition.column],
                    config.partition.num_partitions,
                )
                groups.setdefault(partition, []).append(record)
        else:
            groups = {0: list(records)}

        segments = []
        for __, group in sorted(groups.items()):
            for start in range(0, len(group), rows_per_segment):
                chunk = group[start:start + rows_per_segment]
                sequence = self._segment_sequence.get(table, 0)
                self._segment_sequence[table] = sequence + 1
                builder = SegmentBuilder(
                    f"{table}_{sequence:05d}", table, config.schema,
                    config.segment_config,
                )
                builder.add_all(chunk)
                segments.append(builder.build())
        return segments

    def upload_records(self, logical_table: str,
                       records: Sequence[Mapping[str, Any]],
                       rows_per_segment: int = 100_000) -> list[str]:
        """Build and upload offline segments; returns segment names."""
        table = f"{logical_table}_{TableType.OFFLINE.value}"
        if not table_exists(self.helix, table):
            table = logical_table  # caller passed a physical name
        controller = self.leader_controller()
        segments = self.build_segments(table, records, rows_per_segment)
        for segment in segments:
            controller.upload_segment(table, segment)
        return [segment.name for segment in segments]

    # -- realtime data path (§3.3.6) -------------------------------------------------

    def ingest(self, topic: str, records: Iterable[Mapping[str, Any]],
               key_column: str | None = None) -> int:
        """Produce events to Kafka (what upstream applications do)."""
        return self.kafka.produce_all(topic, (dict(r) for r in records),
                                      key_column)

    def process_realtime(self, ticks: int = 1) -> None:
        """Advance realtime consumption deterministically: every server
        polls its consuming segments once per tick, completing segments
        via the completion protocol as end criteria are met."""
        for __ in range(ticks):
            for server in self.servers:
                server.consume_tick()

    def drain_realtime(self, max_ticks: int = 1000,
                       patience: int = 4) -> None:
        """Tick until consumers stop making progress (all caught up).

        Progress can legitimately pause for a tick or two while the
        completion protocol negotiates a commit, so the drain only stops
        after ``patience`` consecutive ticks without growth.
        """
        previous = (-1, -1)
        idle = 0
        for __ in range(max_ticks):
            self.process_realtime()
            docs = sum(
                server.num_docs(table)
                for server in self.servers
                for table in self.leader_controller().list_tables()
            )
            # Consumed offsets advance even when rows are dropped
            # (dedup tables); doc counts alone would stall the drain.
            offsets = sum(server.stream_progress()
                          for server in self.servers)
            total = (docs, offsets)
            idle = idle + 1 if total == previous else 0
            if idle >= patience:
                return
            previous = total

    # -- queries -----------------------------------------------------------------------

    def execute(self, pql: str, tenant: str | None = None,
                now: float | None = None,
                at: float | None = None) -> BrokerResponse:
        """Run one PQL query through a broker (round-robin). ``at`` pins
        the virtual departure time (burst modelling — see
        :meth:`BrokerInstance.execute`)."""
        return self._next_broker().execute(pql, tenant, now, at=at)

    def explain(self, pql: str) -> dict[str, dict[str, str]]:
        """Per-server, per-segment physical plans for a query."""
        return self.brokers[0].explain(pql)

    def slow_queries(self, k: int | None = None) -> list[dict]:
        """Top-K traced queries by duration across every broker's
        slow-query log."""
        entries = [entry for broker in self.brokers
                   for entry in broker.slow_queries()]
        entries.sort(key=lambda e: -e["duration_ms"])
        return entries[:k] if k is not None else entries

    # -- maintenance ---------------------------------------------------------------------

    def run_retention(self, now: int) -> list[str]:
        return self.leader_controller().run_retention(now)

    def run_tiering(self, now: int) -> list[str]:
        """Move aged segments to remote-only storage (docs/STORAGE.md)."""
        return self.leader_controller().run_tiering(now)

    def run_minions(self) -> int:
        return sum(minion.run_pending() for minion in self.minions)

    # -- failure injection (for fault-tolerance tests) -----------------------------

    def kill_server(self, instance_id: str) -> None:
        """Simulate an abrupt server death."""
        self.helix.deregister_participant(instance_id)
        self.helix.handle_instance_death(instance_id)
        self.servers = [
            server for server in self.servers
            if server.instance_id != instance_id
        ]
        try:
            self.leader_controller().handle_server_death(instance_id)
        except ClusterError:
            pass  # no live controller; a new leader starts blank FSMs

    def crash_server(self, instance_id: str) -> None:
        """Inject a crash: the server stays in the cluster view (brokers
        still route to it) but refuses every connection — the scenario
        replica failover exists for. Contrast :meth:`kill_server`, which
        also removes the instance from Helix so routing avoids it."""
        self.server(instance_id).faults.crash()

    def kill_controller(self, instance_id: str) -> None:
        """Simulate a controller death; a surviving controller takes
        leadership on the next :meth:`leader_controller` resolution."""
        for controller in self.controllers:
            if controller.instance_id == instance_id:
                controller.stop()
        self.controllers = [
            controller for controller in self.controllers
            if controller.instance_id != instance_id
        ]

    def add_server(self, instance_id: str | None = None) -> ServerInstance:
        """Scale out: a blank server joins and becomes usable (§3.4)."""
        if instance_id is None:
            # Don't derive the default id from len(self.servers): after
            # a kill_server the count shrinks and the next auto id
            # would collide with a still-registered instance.
            candidate = len(self.servers)
            taken = {server.instance_id for server in self.servers}
            while f"server-{candidate}" in taken:
                candidate += 1
            instance_id = f"server-{candidate}"
        server = self._new_server(instance_id)
        self.servers.append(server)
        return server

    def _new_server(self, instance_id: str) -> ServerInstance:
        """Construct a server, join it to Helix under the server tag and
        expose its counters in the metrics registry."""
        server = ServerInstance(instance_id, self.helix, self.object_store,
                                self.kafka, self.leader_controller,
                                default_vectorized=self.default_vectorized,
                                store_budget_bytes=self.store_budget_bytes,
                                store_policy=self.store_policy)
        self.helix.register_participant(server, tags=[SERVER_TAG])
        self.metrics_registry.register("server", instance_id,
                                       server.metrics)
        return server
