"""Pinot controllers (§3.2, §3.3.5, §3.3.6, Fig 8).

Controllers own the authoritative segment-to-server mapping, handle
administrative operations (tables, uploads, retention), and run the
realtime segment-completion state machines. Three controller instances
run per datacenter with a single Helix-elected leader; non-leader
controllers answer completion polls with NOTLEADER.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any

from repro.cluster.completion import (
    CompletionResponse,
    Instruction,
    SegmentCompletionManager,
)
from repro.cluster.objectstore import ObjectStore
from repro.cluster.server import (
    parse_realtime_segment_name,
    realtime_segment_name,
)
from repro.cluster.table import (
    TableConfig,
    TableType,
    read_realtime_record,
    read_segment_record,
    read_table_config,
    table_exists,
)
from repro.common.types import FieldSpec
from repro.errors import ClusterError, NotLeaderError, QuotaExceededError
from repro.helix.manager import HelixManager
from repro.helix.statemachine import SegmentState
from repro.kafka.broker import SimKafka
from repro.segment.segment import ImmutableSegment
from repro.zk.store import ZkError, ZkSession

SERVER_TAG = "server"


class Controller:
    """One controller instance."""

    def __init__(self, instance_id: str, helix: HelixManager,
                 object_store: ObjectStore, kafka: SimKafka | None = None):
        self.instance_id = instance_id
        self._helix = helix
        self._store = object_store
        self._kafka = kafka
        self._session: ZkSession | None = None
        self._completion: dict[str, SegmentCompletionManager] = {}
        self._task_ids = itertools.count(1)

    # -- leadership -----------------------------------------------------------

    @property
    def _leader_path(self) -> str:
        return self._helix._path("controllers/leader")  # noqa: SLF001

    def start(self) -> None:
        """Join the controller pool and try to acquire leadership."""
        if self._session is None:
            self._session = self._helix.zk.connect()
        if self._helix.transport.endpoint(self.instance_id) is None:
            # Make this controller addressable so servers can poll the
            # completion protocol and upload commits over the transport.
            self._helix.transport.register(self.instance_id, self)
        self.try_acquire_leadership()

    def stop(self) -> None:
        """Shut down (releases leadership if held; ephemerals expire)."""
        if self._session is not None:
            self._session.close()
            self._session = None
        self._helix.transport.deregister(self.instance_id)
        self._completion.clear()  # a new leader starts blank FSMs

    def try_acquire_leadership(self) -> bool:
        if self._session is None or self._session.closed:
            return False
        zk = self._helix.zk
        if zk.exists(self._leader_path):
            return zk.get(self._leader_path) == self.instance_id
        try:
            zk.create(self._leader_path, self.instance_id,
                      session=self._session, ephemeral=True)
            return True
        except ZkError:  # lost the race: another controller created it
            return False

    @property
    def is_leader(self) -> bool:
        zk = self._helix.zk
        return (
            zk.exists(self._leader_path)
            and zk.get(self._leader_path) == self.instance_id
        )

    def _require_leader(self) -> None:
        if not self.is_leader:
            raise NotLeaderError(
                f"controller {self.instance_id!r} is not the leader"
            )

    # -- table management -----------------------------------------------------

    def create_table(self, config: TableConfig) -> None:
        self._require_leader()
        table = config.name
        if table_exists(self._helix, table):
            raise ClusterError(f"table {table!r} already exists")
        if config.table_type is TableType.REALTIME:
            # Validate the stream up front so a failed create leaves no
            # half-registered table behind.
            assert config.stream is not None
            if self._kafka is None or not self._kafka.has_topic(
                config.stream.topic
            ):
                from repro.errors import IngestionError

                raise IngestionError(
                    f"stream topic {config.stream.topic!r} does not exist"
                )
        self._helix.set_property(f"tableconfigs/{table}", config.to_dict())
        self._helix.set_ideal_state(table, {})
        if config.table_type is TableType.REALTIME:
            self._bootstrap_realtime(config)

    def delete_table(self, table: str) -> None:
        self._require_leader()
        for segment in self._store.list_segments(table):
            self._store.delete(table, segment)
        self._helix.drop_resource(table)
        self._helix.delete_property(f"tableconfigs/{table}")
        for kind in ("segments", "realtime"):
            self._helix.delete_property(f"{kind}/{table}")
        self._completion.pop(table, None)

    def table_config(self, table: str) -> TableConfig:
        return read_table_config(self._helix, table)

    def list_tables(self) -> list[str]:
        return self._helix.list_properties("tableconfigs")

    def list_segments(self, table: str) -> list[str]:
        return sorted(self._helix.ideal_state(table))

    # -- schema evolution (§5.2) ------------------------------------------------

    def add_column(self, table: str, spec: FieldSpec) -> None:
        """Add a column with a default value, without downtime: old
        segments expose it as a default-valued virtual column."""
        self._require_leader()
        config = self.table_config(table)
        # Configs read are shared by every reader: publish a new one.
        config = replace(config, schema=config.schema.with_column(spec))
        self._helix.set_property(f"tableconfigs/{table}", config.to_dict())
        for instance in self._helix.live_instances():
            participant = self._helix.participant(instance)
            if participant is not None and hasattr(participant,
                                                   "apply_new_column"):
                self._helix.transport.call(self.instance_id, instance,
                                           "apply_new_column", table, spec)

    # -- offline segment upload (§3.3.5, Fig 8) -----------------------------------

    def upload_segment(self, table: str, segment: ImmutableSegment,
                       push_time_ms: int = 0) -> None:
        """Receive a segment over (simulated) HTTP POST: verify it,
        check the table quota, write metadata, and assign replicas."""
        self._require_leader()
        config = self.table_config(table)
        self._verify_segment(config, segment)
        self._check_quota(config, table, segment)
        # Place first: an upload refused for want of live servers must
        # leave no record behind (brokers split hybrid queries at the
        # latest pushed record's max_time).
        mapping = self._helix.ideal_state(table)
        self._place(config, mapping, segment.name, SegmentState.ONLINE.value)

        segment.metadata.push_time_ms = push_time_ms
        self._store.put(table, segment)
        self._write_segment_property(table, segment, push_time_ms)
        self._helix.set_ideal_state(table, mapping)
        self._helix.bump_epoch(table)

    def _write_segment_property(self, table: str,
                                segment: ImmutableSegment,
                                push_time_ms: int) -> None:
        """Publish the segment metadata brokers route and prune by
        (time range, blooms, partition). Must be rewritten whenever the
        segment's *data* changes, or pruning and the hybrid time
        boundary silently go stale."""
        blooms = {
            name: meta.bloom
            for name, meta in segment.metadata.columns.items()
            if meta.bloom is not None
        }
        self._helix.set_property(
            f"segments/{table}/{segment.name}",
            {
                "num_docs": segment.num_docs,
                "size_bytes": segment.estimated_size_bytes(),
                "min_time": segment.metadata.min_time,
                "max_time": segment.metadata.max_time,
                "push_time_ms": push_time_ms,
                "partition_id": segment.metadata.partition_id,
                "blooms": blooms,
                # Per-column cardinalities: the broker's smart-
                # approximation rewrite sums these to decide whether an
                # exact DISTINCTCOUNT/PERCENTILE is worth sketching.
                "cardinalities": {
                    name: meta.cardinality
                    for name, meta in segment.metadata.columns.items()
                },
            },
        )

    def _verify_segment(self, config: TableConfig,
                        segment: ImmutableSegment) -> None:
        if segment.num_docs <= 0:
            raise ClusterError(f"segment {segment.name!r} is empty")
        missing = set(config.schema.column_names) - set(segment.column_names)
        if missing:
            raise ClusterError(
                f"segment {segment.name!r} is missing columns "
                f"{sorted(missing)}"
            )

    def _check_quota(self, config: TableConfig, table: str,
                     segment: ImmutableSegment) -> None:
        if config.quota_bytes is None:
            return
        projected = self._store.size_bytes(table) + (
            segment.estimated_size_bytes()
        )
        if projected > config.quota_bytes:
            raise QuotaExceededError(
                f"uploading {segment.name!r} would put table {table!r} at "
                f"{projected} bytes, over its {config.quota_bytes} quota"
            )

    def replace_segment(self, table: str, segment: ImmutableSegment) -> None:
        """Atomically replace an existing segment with a new version
        (how updates/corrections work on immutable data, §3.1)."""
        self._require_leader()
        if not self._store.exists(table, segment.name):
            raise ClusterError(
                f"segment {segment.name!r} does not exist in {table!r}"
            )
        config = self.table_config(table)
        self._verify_segment(config, segment)
        self._store.put(table, segment)
        # Refresh the routing metadata: the new copy's time range,
        # blooms and doc count replace the original's. Skipping this
        # leaves brokers pruning (and placing the hybrid time boundary)
        # against the *old* copy's min/max_time.
        previous = self._helix.get_property(
            f"segments/{table}/{segment.name}") or {}
        segment.metadata.push_time_ms = previous.get("push_time_ms", 0)
        self._write_segment_property(table, segment,
                                     segment.metadata.push_time_ms)
        # Bounce replicas OFFLINE -> ONLINE so they reload the new copy.
        mapping = self._helix.ideal_state(table)
        replicas = mapping.get(segment.name, {})
        mapping[segment.name] = {
            server: SegmentState.OFFLINE.value for server in replicas
        }
        self._helix.set_ideal_state(table, mapping)
        mapping[segment.name] = {
            server: SegmentState.ONLINE.value for server in replicas
        }
        self._helix.set_ideal_state(table, mapping)
        self._helix.bump_epoch(table)

    def delete_segment(self, table: str, segment_name: str) -> None:
        self._require_leader()
        mapping = self._helix.ideal_state(table)
        mapping.pop(segment_name, None)
        self._helix.set_ideal_state(table, mapping)
        self._store.delete(table, segment_name)
        self._helix.delete_property(f"segments/{table}/{segment_name}")
        self._helix.bump_epoch(table)

    # -- placement (§3.2, §3.4) --------------------------------------------------
    #
    # A placement unit is the set of segments that must share replicas.
    # A plain table's unit is one segment. An upsert or dedup table's
    # unit is a partition's whole chain: every server hosting any of a
    # partition's segments hosts ALL of them, so its PK index sees every
    # version of every key and its valid-docId bitmaps are complete (the
    # complete-replica invariant, docs/UPSERT.md). For the same reason a
    # chain moves all-or-nothing: if a rebalance cannot bring up every
    # new replica of it, the chain reverts to its old holders, while a
    # lone segment keeps its grown replica set (its old replicas still
    # serve it and the failed ones retry at the next mapping change).

    @staticmethod
    def _unit_of(config: TableConfig, segment: str) -> str | int:
        if config.upsert is None:
            return segment
        return parse_realtime_segment_name(segment)[1]

    def _live_servers(self, replication: int) -> list[str]:
        """The live server-tagged instances; at least ``replication``."""
        servers = [
            instance for instance in self._helix.live_instances()
            if SERVER_TAG in self._helix.instance_tags(instance)
        ]
        if len(servers) < replication:
            raise ClusterError(
                f"need {replication} servers, only {len(servers)} live"
            )
        return servers

    @staticmethod
    def _load(servers: list[str],
              mapping: dict[str, dict[str, str]]) -> dict[str, int]:
        """Replicas each of ``servers`` holds in ``mapping``."""
        load = dict.fromkeys(servers, 0)
        for replicas in mapping.values():
            for server in replicas:
                if server in load:
                    load[server] += 1
        return load

    def _place(self, config: TableConfig,
               mapping: dict[str, dict[str, str]], segment: str,
               state: str) -> None:
        """Seat a new segment in ``mapping``: on its unit's holders
        first (a consuming rollover stays with its chain), then on the
        least-loaded servers. A server new to a chain receives the
        whole committed chain in the same ideal-state update, so its PK
        index is rebuilt before it consumes or serves anything."""
        servers = self._live_servers(config.replication)
        load = self._load(servers, mapping)
        unit = self._unit_of(config, segment)
        chain = [other for other in mapping if other != segment
                 and self._unit_of(config, other) == unit]
        holders = {server for other in chain for server in mapping[other]}
        chosen = sorted(
            servers, key=lambda s: (s not in holders, load[s], s)
        )[:config.replication]
        for other in chain:
            # All prior segments of a chain are committed here (the
            # previous sequence is promoted before rollover).
            for server in chosen:
                mapping[other].setdefault(server, SegmentState.ONLINE.value)
        mapping[segment] = dict.fromkeys(chosen, state)

    def _seat_state(self, config: TableConfig, segment: str,
                    replicas: dict[str, str]) -> str:
        """The state a rebalance asks of ``segment``'s replicas: the one
        its replicas hold. If every replica died before this rebalance
        (e.g. all CONSUMING holders were killed and re-seating was
        deferred to the next mapping change), only a committed segment
        exists in the deep store and can come back ONLINE; an
        uncommitted one must re-consume from its start offset."""
        state = next(iter(replicas.values()), None)
        if state is not None:
            return state
        meta = read_realtime_record(self._helix, config.name, segment) or {}
        committed = (config.table_type is TableType.OFFLINE
                     or meta.get("status") == "DONE")
        return (SegmentState.ONLINE.value if committed
                else SegmentState.CONSUMING.value)

    def rebalance_table(self, table: str) -> dict[str, list[str]]:
        """Recompute a balanced assignment of the table's placement units
        over the currently live servers (the operator-triggered mapping
        change of §3.2 — e.g. after scaling out with blank nodes, or to
        re-seat a unit whose every replica died).

        Returns the new server -> segments mapping. Replicas move by
        ordinary Helix transitions: added replicas come ONLINE from the
        object store before removed ones are dropped, so the table
        stays fully queryable throughout.
        """
        self._require_leader()
        config = self.table_config(table)
        servers = self._live_servers(config.replication)
        current = self._helix.ideal_state(table)
        unit_of = {segment: self._unit_of(config, segment)
                   for segment in sorted(current)}
        units: dict[str | int, list[str]] = {}
        for segment, unit in unit_of.items():
            units.setdefault(unit, []).append(segment)
        load = dict.fromkeys(servers, 0)
        chosen: dict[str | int, list[str]] = {}
        for unit in sorted(units):
            holders = {server for segment in units[unit]
                       for server in current[segment]}
            # Least-loaded first for balance; among equally loaded
            # servers prefer holders (no data movement, no index rebuild).
            chosen[unit] = sorted(
                servers, key=lambda s: (load[s], s not in holders, s)
            )[:config.replication]
            for server in chosen[unit]:
                load[server] += len(units[unit])
        target = {
            segment: dict.fromkeys(
                chosen[unit],
                self._seat_state(config, segment, current[segment]))
            for segment, unit in unit_of.items()
        }

        # Two-phase apply: grow replicas first, then shrink — but only
        # shrink a unit once its *new* replicas actually reached the
        # target state in the external view. A crashed or slow server
        # leaves its transition in ERROR; dropping the old replicas at
        # that point would leave the segment served by nobody (and a
        # query would silently skip it). A unit whose new replicas did
        # not converge falls back as the placement note above says,
        # until the next rebalance.
        grown = {segment: {**current[segment], **replicas}
                 for segment, replicas in target.items()}
        self._helix.set_ideal_state(table, grown)
        view = self._helix.external_view(table)
        converged = {
            unit for unit, segments in units.items()
            if all(view.get(segment, {}).get(server) == state
                   for segment in segments
                   for server, state in target[segment].items())
        }
        fallback = grown if config.upsert is None else current
        final = {
            segment: dict(target[segment] if unit in converged
                          else fallback[segment])
            for segment, unit in unit_of.items()
        }
        self._helix.set_ideal_state(table, final)
        # Replicas moved off a server will never poll the completion
        # protocol again; purge them so an in-flight commit is not
        # orphaned waiting on a committer that left.
        if table in self._completion:
            manager = self._completion[table]
            for segment, replicas in final.items():
                for server, state in current[segment].items():
                    if (server not in replicas
                            and state == SegmentState.CONSUMING.value):
                        manager.replica_removed(segment, server)
        out: dict[str, list[str]] = {}
        for segment, replicas in final.items():
            for server in replicas:
                out.setdefault(server, []).append(segment)
        return out

    # -- retention GC (§3.2) -----------------------------------------------------

    def run_retention(self, now: int) -> list[str]:
        """Garbage-collect segments past their table's retention window;
        returns the deleted segment names."""
        self._require_leader()
        deleted = []
        for table in self.list_tables():
            config = self.table_config(table)
            if config.retention is None:
                continue
            cutoff = now - config.retention
            for segment_name in self.list_segments(table):
                meta = read_segment_record(self._helix, table,
                                           segment_name)
                max_time = meta.get("max_time")
                if max_time is not None and max_time < cutoff:
                    self.delete_segment(table, segment_name)
                    deleted.append(segment_name)
        return deleted

    # -- retention tiering (docs/STORAGE.md) ------------------------------------

    def run_tiering(self, now: int) -> list[str]:
        """Move segments past their table's ``tier_to_remote_after``
        window to remote-only: the authoritative copy stays in the deep
        store, hosting servers drop any resident payload, and future
        queries cold-fetch under a per-query pin. A cheaper sibling of
        retention GC — the data stays queryable, it just stops occupying
        server memory. Returns the newly tiered segment names."""
        self._require_leader()
        tiered = []
        for table in self.list_tables():
            config = self.table_config(table)
            if config.tier_to_remote_after is None:
                continue
            cutoff = now - config.tier_to_remote_after
            for segment_name in self.list_segments(table):
                for kind in ("segments", "realtime"):
                    path = f"{kind}/{table}/{segment_name}"
                    meta = self._helix.get_property(path)
                    if meta is not None:
                        break
                if meta is None or meta.get("tier") == "remote":
                    continue
                max_time = meta.get("max_time")
                if max_time is None or max_time >= cutoff:
                    continue
                meta["tier"] = "remote"
                self._helix.set_property(path, meta)
                for instance in self._helix.external_view(table).get(
                        segment_name, {}):
                    participant = self._helix.participant(instance)
                    if participant is None or not hasattr(
                            participant, "apply_tiering"):
                        continue
                    try:
                        self._helix.transport.call(
                            self.instance_id, instance,
                            "apply_tiering", table, segment_name,
                        )
                    except ClusterError:
                        continue  # dead replica rebuilds lazily anyway
                self._helix.bump_epoch(table)
                tiered.append(segment_name)
        return tiered

    # -- realtime segment management (§3.3.6) ---------------------------------------

    def _bootstrap_realtime(self, config: TableConfig) -> None:
        assert config.stream is not None and self._kafka is not None
        table = config.name
        for partition in range(self._kafka.num_partitions(config.stream.topic)):
            start = self._kafka.earliest_offset(config.stream.topic,
                                                partition)
            self._create_consuming_segment(config, partition, 0, start)

    def _create_consuming_segment(self, config: TableConfig, partition: int,
                                  sequence: int, start_offset: int) -> str:
        table = config.name
        name = realtime_segment_name(table, partition, sequence)
        self._helix.set_property(
            f"realtime/{table}/{name}",
            {
                "partition": partition,
                "sequence": sequence,
                "start_offset": start_offset,
                "status": "IN_PROGRESS",
                "end_offset": None,
                "min_time": None,
                "max_time": None,
            },
        )
        mapping = self._helix.ideal_state(table)
        self._place(config, mapping, name, SegmentState.CONSUMING.value)
        self._helix.set_ideal_state(table, mapping)
        return name

    def _completion_manager(self, table: str) -> SegmentCompletionManager:
        if table not in self._completion:
            config = self.table_config(table)
            self._completion[table] = SegmentCompletionManager(
                expected_replicas=config.replication
            )
        return self._completion[table]

    def handle_server_death(self, instance_id: str) -> None:
        """Purge a dead server from every in-flight completion protocol
        so a surviving replica can be elected committer (§3.3.6).

        The ideal state says which consuming segments the dead server
        was a replica of, so the expected-replica count is corrected
        even for segments the server never got to poll for — otherwise
        the survivors are held for the full poll budget before they can
        elect a committer."""
        if not self.is_leader:
            return
        for table in self.list_tables():
            if self.table_config(table).table_type is not (
                    TableType.REALTIME):
                continue
            mapping = self._helix.ideal_state(table)
            consuming = [
                segment for segment, replicas in mapping.items()
                if replicas.get(instance_id) == SegmentState.CONSUMING.value
            ]
            if not consuming and table not in self._completion:
                continue
            # Instantiate the manager if needed: the death may land
            # before any replica's first poll, and the correction must
            # survive until those polls arrive.
            manager = self._completion_manager(table)
            for segment in consuming:
                manager.replica_removed(segment, instance_id)
            # Catch-all for stale offset reports from replicas no
            # longer in the ideal state (already re-elects a dead
            # committer; no-op for servers it never saw).
            manager.fail_server(instance_id)
        self._reassign_dead_replicas(instance_id)

    def _reassign_dead_replicas(self, instance_id: str) -> None:
        """Move a dead server's replicas to surviving servers.

        Committed and offline segments live in the object store, so a
        replacement replica loads instantly — leaving the dead instance
        in the ideal state instead means a second death can strand a
        segment with *no* live replica, which brokers silently skip (a
        non-partial but wrong answer). CONSUMING replicas are *not*
        re-seated: a replacement would re-consume from the segment's
        start offset and serve a stale prefix to queries while catching
        up; the partition instead runs at reduced replication until the
        next rollover, where the new consuming segment is placed on
        live servers.

        Upsert/dedup tables re-seat nothing at all: a replacement
        hosting one committed segment without the rest of its partition
        would serve rows its PK index never masked (the complete-replica
        invariant). The partition runs at reduced replication and heals
        wholesale at the next rollover, whose placement unit is the
        whole chain, or at a rebalance."""
        for table in self.list_tables():
            mapping = self._helix.ideal_state(table)
            if not any(instance_id in replicas
                       for replicas in mapping.values()):
                continue
            upsert = self.table_config(table).upsert is not None
            servers = self._live_servers(0)  # re-seat on whatever is left
            load = self._load(servers, mapping)
            new_mapping: dict[str, dict[str, str]] = {}
            for segment, replicas in mapping.items():
                replicas = dict(replicas)
                state = replicas.pop(instance_id, None)
                if (state is not None and not upsert
                        and state != SegmentState.CONSUMING.value):
                    replacement = min(
                        (server for server in servers
                         if server not in replicas),
                        key=lambda server: (load[server], server),
                        default=None,
                    )
                    if replacement is not None:
                        replicas[replacement] = state
                        load[replacement] += 1
                new_mapping[segment] = replicas
            self._helix.set_ideal_state(table, new_mapping)

    def segment_consumed(self, table: str, segment: str, server: str,
                         offset: int) -> CompletionResponse:
        """A server's completion-protocol poll (§3.3.6)."""
        if not self.is_leader:
            return CompletionResponse(Instruction.NOTLEADER)
        return self._completion_manager(table).segment_consumed(
            segment, server, offset
        )

    def commit_segment(self, table: str, segment: str, server: str,
                       offset: int, sealed: ImmutableSegment) -> bool:
        """The committer uploads its sealed copy (COMMIT instruction)."""
        if not self.is_leader:
            return False
        manager = self._completion_manager(table)
        if not manager.segment_commit(segment, server, offset):
            return False

        config = self.table_config(table)
        self._store.put(table, sealed)
        meta = read_realtime_record(self._helix, table, segment) or {}
        meta.update(
            status="DONE",
            end_offset=offset,
            min_time=sealed.metadata.min_time,
            max_time=sealed.metadata.max_time,
            num_docs=sealed.num_docs,
            size_bytes=sealed.estimated_size_bytes(),
            cardinalities={
                name: meta.cardinality
                for name, meta in sealed.metadata.columns.items()
            },
        )
        self._helix.set_property(f"realtime/{table}/{segment}", meta)

        # Promote all replicas; non-committers KEEP or DISCARD via the
        # CONSUMING -> ONLINE transition.
        mapping = self._helix.ideal_state(table)
        for replica in mapping.get(segment, {}):
            mapping[segment][replica] = SegmentState.ONLINE.value
        self._helix.set_ideal_state(table, mapping)

        # Open the next consuming segment where the last one ended.
        partition = meta["partition"]
        self._create_consuming_segment(config, partition,
                                       meta["sequence"] + 1, offset)
        self._helix.bump_epoch(table)
        return True

    # -- minion task scheduling (§3.2) ------------------------------------------------

    def schedule_task(self, task_type: str, table: str,
                      params: dict[str, Any] | None = None) -> str:
        """Enqueue a maintenance task for the minions."""
        self._require_leader()
        task_id = f"task-{next(self._task_ids):06d}"
        self._helix.set_property(
            f"tasks/{task_id}",
            {
                "id": task_id,
                "type": task_type,
                "table": table,
                "params": params or {},
                "status": "PENDING",
                "owner": None,
            },
        )
        return task_id

    def pending_tasks(self) -> list[dict[str, Any]]:
        tasks = []
        for task_id in self._helix.list_properties("tasks"):
            task = self._helix.get_property(f"tasks/{task_id}")
            if task and task["status"] == "PENDING":
                tasks.append(task)
        return tasks

    def task_status(self, task_id: str) -> str:
        task = self._helix.get_property(f"tasks/{task_id}")
        if task is None:
            raise ClusterError(f"no such task: {task_id!r}")
        return task["status"]

    def update_task(self, task: dict[str, Any]) -> None:
        self._helix.set_property(f"tasks/{task['id']}", task)
