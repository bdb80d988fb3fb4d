"""The harness's invariant catalogue.

Five families of whole-cluster invariants, checked between schedule
steps (see docs/SIMULATION.md):

1. **query oracle** — every non-partial query result equals a naive
   reference execution over the logically visible rows
   (:mod:`repro.sim.oracle`);
2. **completion safety** — exactly one committed segment per
   (table, partition, sequence); committed offset chains never regress,
   gap, or overlap; every committed segment's store copy holds exactly
   its offset range;
3. **convergence** — once faults heal, the external view reaches the
   ideal state on live instances;
4. **cache coherence** — a (possibly cached) answer equals the
   uncached answer for the same query at the same instant;
5. **hybrid integrity** — no row lost or double-counted across the
   offline/realtime time boundary (checked through the oracle on the
   logical table, plus the end-of-run liveness check that every
   produced row became visible).

Functions here return ``None`` when the invariant holds, or a detail
string describing the violation. The harness wraps non-None returns in
a :class:`Violation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.server import parse_realtime_segment_name
from repro.helix.manager import HelixManager
from repro.helix.statemachine import SegmentState


@dataclass(frozen=True)
class Violation:
    """One invariant violation (or harness-observed crash)."""

    invariant: str
    detail: str
    #: Index of the schedule op being applied; ``len(ops)`` for the
    #: heal-and-verify epilogue.
    step: int = -1
    op: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.invariant}] step {self.step}: {self.detail}"


def check_completion_safety(helix: HelixManager, store,
                            table: str, dedup: bool = False) -> str | None:
    """Invariant 2 for one realtime table.

    ``dedup`` relaxes the doc-count checks: a dedup table drops
    duplicate-key rows at ingestion, so a committed segment may hold
    *fewer* docs than its offset range spans — but never more, and its
    metadata must agree with the store copy exactly.
    """
    by_partition: dict[int, list[tuple[int, str, dict]]] = {}
    for name in helix.list_properties(f"realtime/{table}"):
        meta = helix.get_property(f"realtime/{table}/{name}") or {}
        try:
            __, partition, sequence = parse_realtime_segment_name(name)
        except ValueError:
            return f"unparseable realtime segment name {name!r}"
        if meta.get("partition") != partition or (
                meta.get("sequence") != sequence):
            return (f"{name}: metadata says partition "
                    f"{meta.get('partition')}/seq {meta.get('sequence')}")
        by_partition.setdefault(partition, []).append(
            (sequence, name, meta))

    for partition, entries in sorted(by_partition.items()):
        entries.sort()
        sequences = [sequence for sequence, __, __meta in entries]
        if sequences != list(range(len(sequences))):
            return (f"partition {partition}: non-contiguous sequences "
                    f"{sequences}")
        previous_end: int | None = None
        for index, (sequence, name, meta) in enumerate(entries):
            status = meta.get("status")
            start = meta.get("start_offset")
            end = meta.get("end_offset")
            last = index == len(entries) - 1
            if status == "IN_PROGRESS":
                if not last:
                    return (f"{name}: IN_PROGRESS but a later sequence "
                            f"exists (partition {partition})")
            elif status == "DONE":
                if end is None or start is None or end < start:
                    return (f"{name}: committed with offsets "
                            f"[{start}, {end})")
                if not store.exists(table, name):
                    return f"{name}: committed but missing from store"
                sealed = store.get(table, name)
                if dedup:
                    if sealed.num_docs > end - start:
                        return (f"{name}: store copy has "
                                f"{sealed.num_docs} docs, more than the "
                                f"offset range [{start}, {end})")
                elif sealed.num_docs != end - start:
                    return (f"{name}: store copy has {sealed.num_docs} "
                            f"docs for offset range [{start}, {end})")
                num_docs = meta.get("num_docs")
                expected = sealed.num_docs if dedup else end - start
                if num_docs is not None and num_docs != expected:
                    return (f"{name}: metadata num_docs {num_docs} != "
                            f"expected {expected}")
            else:
                return f"{name}: unknown status {status!r}"
            if previous_end is not None and start != previous_end:
                return (f"{name}: starts at {start}, previous sequence "
                        f"committed at {previous_end} (offset "
                        f"{'regression' if start < previous_end else 'gap'})")
            previous_end = end if status == "DONE" else None
            if status == "IN_PROGRESS":
                break
    return None


_HEALTHY = frozenset({
    SegmentState.ONLINE.value, SegmentState.CONSUMING.value,
})


def check_residency(servers) -> str | None:
    """Invariant 4 (tiered storage, docs/STORAGE.md): between ops no
    query is executing, so no segment is pinned and every server's
    resident bytes must fit its segment-cache budget."""
    for server in servers:
        cache = server.segment_cache
        if cache.budget_bytes is None:
            continue
        pinned = [entry.name for entry in cache.entries()
                  if entry.pins > 0]
        if pinned:
            return (f"{server.instance_id}: segments still pinned "
                    f"between ops: {pinned}")
        if cache.resident_bytes > cache.budget_bytes:
            return (f"{server.instance_id}: resident_bytes "
                    f"{cache.resident_bytes} exceeds budget "
                    f"{cache.budget_bytes}")
    return None


def check_ejection_discipline(brokers) -> str | None:
    """Probe-only invariant (docs/RESILIENCE.md): an ejected server
    receives no traffic except cadence-gated (or forced last-replica)
    probes. The broker's :class:`repro.cluster.health.FailureDetector`
    counts every non-probe dispatch to an ejected instance; between ops
    that counter must be zero on every broker."""
    for broker in brokers:
        detector = broker.health
        if detector is None:
            continue
        violations = detector.counters.get("discipline_violations", 0)
        if violations:
            return (f"{broker.instance_id}: {violations} non-probe "
                    f"dispatch(es) to ejected servers "
                    f"(ejected={sorted(detector.ejected_set())})")
    return None


def check_convergence(helix: HelixManager) -> str | None:
    """Invariant 3: with no faults outstanding, every resource's
    external view matches its ideal state on live instances, and every
    segment is actually served somewhere."""
    live = set(helix.live_instances())
    for resource in helix.resources():
        ideal = helix.ideal_state(resource)
        view = helix.external_view(resource)
        for segment, replica_states in ideal.items():
            served = 0
            for instance, desired in replica_states.items():
                if instance not in live:
                    continue
                actual = view.get(segment, {}).get(instance)
                if actual != desired:
                    return (f"{resource}/{segment} on {instance}: "
                            f"ideal {desired}, view {actual}")
                if desired in _HEALTHY:
                    served += 1
            if replica_states and not served:
                return (f"{resource}/{segment}: no live replica in a "
                        f"queryable state")
        for segment, replica_states in view.items():
            for instance in replica_states:
                if instance in live and instance not in ideal.get(
                        segment, {}):
                    return (f"{resource}/{segment}: {instance} still in "
                            f"external view but not in ideal state")
    return None
