"""Helix-style cluster management (§3.2, Fig 2).

Apache Helix manages partitions and replicas in a distributed system by
keeping two pieces of state in Zookeeper per resource (table):

* the **ideal state** — the desired mapping
  ``segment -> {instance: state}``, owned by the controller;
* the **external view** — the actual current mapping, updated by
  participants as they complete state transitions.

Whenever the ideal state changes, the manager computes per-replica
transition paths (:mod:`repro.helix.statemachine`) and invokes the
owning participant's transition handler; on success the external view
is updated and broker routing tables refresh off the external-view
watch (§3.3.2).

The manager also keeps one *table epoch* per resource, bumped by every
change to the data a table serves (docs/ARCHITECTURE.md, "Cluster
state"); brokers key cached results by it.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ClusterError
from repro.helix.statemachine import (
    SegmentState,
    affects_query_results,
    transition_path,
)
from repro.net import SimClock, Transport
from repro.zk.store import ZkSession, ZkStore

#: Source address used for controller-originated transition RPCs.
CONTROLLER_ADDRESS = "helix-controller"

#: External-view marker for a replica whose transition failed. Not a
#: :class:`SegmentState` — brokers skip it, and convergence retries it
#: from OFFLINE.
ERROR_STATE = "ERROR"


class Participant(Protocol):
    """Anything that can execute segment state transitions (servers)."""

    instance_id: str

    def process_transition(self, resource: str, segment: str,
                           from_state: SegmentState,
                           to_state: SegmentState) -> None:
        """Execute one transition; raise to signal failure."""


class HelixManager:
    """Shared access point to the cluster's Helix state in Zookeeper."""

    def __init__(self, zk: ZkStore, cluster_name: str,
                 transport: Transport | None = None):
        self.zk = zk
        self.cluster = cluster_name
        #: The cluster's message fabric: every controller->participant
        #: transition and (via the broker/server wiring) every query
        #: sub-request travels over this transport's virtual timeline.
        self.transport = transport if transport is not None \
            else Transport(SimClock())
        self._participants: dict[str, Participant] = {}
        self._sessions: dict[str, ZkSession] = {}
        self._view_callbacks: list = []
        self._epochs: dict[str, int] = {}
        root = self._path("")
        if not zk.exists(root):
            zk.create(root, make_parents=True)
        for child in ("instances", "live", "idealstate", "externalview",
                      "propertystore", "controllers"):
            path = self._path(child)
            if not zk.exists(path):
                zk.create(path, make_parents=True)

    def _path(self, suffix: str) -> str:
        base = f"/clusters/{self.cluster}"
        return f"{base}/{suffix}" if suffix else base

    # -- instance membership -------------------------------------------------

    def register_participant(self, participant: Participant,
                             tags: list[str] | None = None) -> None:
        """Join the cluster as a live instance (ephemeral znode)."""
        instance_id = participant.instance_id
        if instance_id in self._participants:
            raise ClusterError(f"instance {instance_id!r} already registered")
        session = self.zk.connect()
        config_path = self._path(f"instances/{instance_id}")
        if not self.zk.exists(config_path):
            self.zk.create(config_path, {"tags": tags or []})
        self.zk.create(self._path(f"live/{instance_id}"),
                       {"session": session.session_id},
                       session=session, ephemeral=True)
        self._participants[instance_id] = participant
        self._sessions[instance_id] = session
        if self.transport.endpoint(instance_id) is None:
            self.transport.register(instance_id, participant)

    def deregister_participant(self, instance_id: str) -> None:
        """Leave the cluster (simulates instance death: the ephemeral
        live node disappears)."""
        session = self._sessions.pop(instance_id, None)
        if session is not None:
            session.close()
        self._participants.pop(instance_id, None)
        self.transport.deregister(instance_id)

    def live_instances(self) -> list[str]:
        return self.zk.children(self._path("live"))

    def participant(self, instance_id: str) -> Participant | None:
        """The registered participant object (simulation-only accessor
        standing in for an RPC channel to the instance)."""
        return self._participants.get(instance_id)

    def instance_tags(self, instance_id: str) -> list[str]:
        config = self.zk.get_or_default(
            self._path(f"instances/{instance_id}"), {}
        )
        return list(config.get("tags", []))

    def instances_with_tag(self, tag: str) -> list[str]:
        return [
            instance for instance in self.zk.children(self._path("instances"))
            if tag in self.instance_tags(instance)
        ]

    # -- ideal state / external view ------------------------------------------

    def ideal_state(self, resource: str) -> dict[str, dict[str, str]]:
        return dict(self.zk.get_or_default(
            self._path(f"idealstate/{resource}"), {}
        ))

    def external_view(self, resource: str) -> dict[str, dict[str, str]]:
        return dict(self.zk.get_or_default(
            self._path(f"externalview/{resource}"), {}
        ))

    def resources(self) -> list[str]:
        return self.zk.children(self._path("idealstate"))

    def set_ideal_state(self, resource: str,
                        mapping: dict[str, dict[str, str]]) -> None:
        """Replace the resource's ideal state and converge the cluster."""
        self.zk.upsert(self._path(f"idealstate/{resource}"), mapping)
        self.converge(resource)

    def drop_resource(self, resource: str) -> None:
        mapping = self.ideal_state(resource)
        for segment in list(mapping):
            mapping[segment] = {
                instance: SegmentState.DROPPED.value
                for instance in mapping[segment]
            }
        self.set_ideal_state(resource, mapping)
        self.zk.delete(self._path(f"idealstate/{resource}"))
        self.zk.delete(self._path(f"externalview/{resource}"))

    def watch_external_view(self, callback) -> None:
        """Watch all external-view changes (brokers use this, §3.3.2)."""
        self.zk.watch_children(self._path("externalview"), callback)
        # Individual resource nodes also get data watches as they appear.
        for resource in self.zk.children(self._path("externalview")):
            self.zk.watch_data(
                self._path(f"externalview/{resource}"), callback
            )
        self._view_callbacks.append(callback)

    def bump_epoch(self, resource: str) -> None:
        """Record a change to the data ``resource`` serves."""
        self._epochs[resource] = self._epochs.get(resource, 0) + 1

    def table_epoch(self, resource: str) -> int:
        """How many data changes ``resource`` has seen. Two equal
        readings bound an interval in which no segment record was
        written and no committed document changed; rows a consuming
        segment takes in do not count (brokers read its offset)."""
        return self._epochs.get(resource, 0)

    # -- convergence (the Helix controller's core loop) ---------------------

    def converge(self, resource: str) -> None:
        """Drive the external view toward the ideal state by sending
        transitions to participants (Fig 4)."""
        ideal = self.ideal_state(resource)
        view = self.external_view(resource)
        live = set(self.live_instances())

        for segment, replica_states in ideal.items():
            for instance, desired_name in replica_states.items():
                if instance not in live:
                    continue
                desired = SegmentState(desired_name)
                current_name = view.get(segment, {}).get(
                    instance, SegmentState.OFFLINE.value
                )
                if current_name == ERROR_STATE:
                    # A replica parked in ERROR by a failed transition
                    # restarts its lifecycle from OFFLINE (Helix's
                    # ERROR -> OFFLINE reset) — the retry either heals
                    # it or parks it in ERROR again.
                    current_name = SegmentState.OFFLINE.value
                current = SegmentState(current_name)
                if current is desired:
                    continue
                self._execute_transitions(resource, segment, instance,
                                          current, desired, view)

        # Replicas no longer in the ideal state get dropped.
        for segment, replica_states in list(view.items()):
            for instance in list(replica_states):
                if instance in ideal.get(segment, {}):
                    continue
                current_name = replica_states[instance]
                if current_name == ERROR_STATE:
                    current_name = SegmentState.OFFLINE.value
                current = SegmentState(current_name)
                if instance in live and current is not SegmentState.DROPPED:
                    self._execute_transitions(
                        resource, segment, instance, current,
                        SegmentState.DROPPED, view,
                    )
                replica_states.pop(instance, None)
            if not replica_states:
                view.pop(segment, None)

        self.zk.upsert(self._path(f"externalview/{resource}"), view)
        self._notify_view(resource)

    def _execute_transitions(self, resource: str, segment: str,
                             instance: str, current: SegmentState,
                             desired: SegmentState,
                             view: dict[str, dict[str, str]]) -> None:
        if self._participants.get(instance) is None:
            return
        try:
            for from_state, to_state in transition_path(current, desired):
                # State transitions are RPCs: the controller messages the
                # participant over the transport, so slow/lossy links and
                # server-side queueing shape convergence latency too.
                self.transport.call(CONTROLLER_ADDRESS, instance,
                                    "process_transition", resource, segment,
                                    from_state, to_state)
                view.setdefault(segment, {})[instance] = to_state.value
                if affects_query_results(from_state, to_state):
                    self.bump_epoch(resource)
        except ClusterError:
            # A failed transition leaves the replica in ERROR; Helix
            # reports it in the external view so brokers avoid it.
            view.setdefault(segment, {})[instance] = ERROR_STATE

    def handle_instance_death(self, instance_id: str) -> None:
        """Purge a dead instance from all external views."""
        for resource in self.resources():
            view = self.external_view(resource)
            changed = False
            for segment in list(view):
                if instance_id in view[segment]:
                    del view[segment][instance_id]
                    changed = True
                if not view[segment]:
                    del view[segment]
            if changed:
                self.zk.upsert(self._path(f"externalview/{resource}"), view)
                self.bump_epoch(resource)
                self._notify_view(resource)

    def _notify_view(self, resource: str) -> None:
        for callback in list(self._view_callbacks):
            callback("changed", self._path(f"externalview/{resource}"))

    # -- property store (segment metadata, completion records, ...) ---------

    def property_path(self, suffix: str) -> str:
        return self._path(f"propertystore/{suffix}")

    def set_property(self, suffix: str, value) -> None:
        self.zk.upsert(self.property_path(suffix), value)

    def get_property(self, suffix: str, default=None):
        return self.zk.get_or_default(self.property_path(suffix), default)

    def delete_property(self, suffix: str) -> None:
        self.zk.delete(self.property_path(suffix), recursive=True)

    def list_properties(self, suffix: str) -> list[str]:
        return self.zk.children(self.property_path(suffix))
