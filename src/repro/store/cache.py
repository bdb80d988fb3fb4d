"""The per-server segment cache: sized refs, lazy loads, pins, budget.

Every segment a server *hosts* has an entry here, but only some entries
are *resident* (hold the loaded :class:`ImmutableSegment`). A query
pins the entries it scans — loading them through the caller-supplied
fetcher on a miss — and unpins them when done; eviction under the byte
budget only ever touches unpinned residents, so an executing query can
never lose a segment out from under it.

Three residency classes:

* resident — loaded and counted against the budget;
* ref-only — hosted but not loaded; the next pin cold-loads it;
* remote-only — tiered off by the controller: loads are *transient*
  (resident only while pinned, dropped at the last unpin), so aged
  segments never push working-set segments out of the budget.

A segment larger than the entire budget is also served transiently
rather than rejected — admitting it would evict everything else for a
single resident.

Evictions invoke ``on_evict(table, name)`` so the owner can react (the
server bumps the table's Helix epoch). Decoded
column arrays hang off the segment object and go with it. Metrics go
through the owner's :class:`~repro.obs.metrics.Metrics` under the
``store_*`` names catalogued in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ClusterError
from repro.store.policy import EvictionPolicy, make_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Metrics
    from repro.segment.segment import ImmutableSegment

Key = tuple[str, str]


@dataclass
class SegmentEntry:
    """One hosted segment: identity, size accounting, residency."""

    table: str
    name: str
    #: :meth:`ImmutableSegment.estimated_size_bytes` — known up front
    #: from segment metadata even while the payload is remote.
    size_bytes: int
    num_docs: int
    segment: "ImmutableSegment | None" = None
    pins: int = 0
    #: Tiered to the deep store by retention tiering: loads are
    #: transient (dropped at the last unpin) instead of cached.
    remote_only: bool = False

    @property
    def resident(self) -> bool:
        return self.segment is not None


class SegmentCache:
    """Byte-budgeted cache of hosted segments over the deep store."""

    def __init__(self, budget_bytes: int | None = None,
                 policy: EvictionPolicy | str = "lru",
                 on_evict: Callable[[str, str], None] | None = None,
                 metrics: "Metrics | None" = None):
        #: None = unbounded (every hosted segment stays resident — the
        #: pre-tiering behavior, and the default).
        self.budget_bytes = budget_bytes
        self.policy = (make_policy(policy) if isinstance(policy, str)
                       else policy)
        self._on_evict = on_evict
        self._metrics = metrics
        self._entries: dict[Key, SegmentEntry] = {}
        self.resident_bytes = 0
        self._publish_gauges()

    # -- hosting lifecycle ---------------------------------------------------

    def register(self, table: str, name: str, size_bytes: int,
                 num_docs: int,
                 segment: "ImmutableSegment | None" = None) -> SegmentEntry:
        """Start hosting ``table/name``. With ``segment`` the entry is
        admitted resident (evicting under the budget as needed);
        without, it stays a lazy ref until the first pin."""
        key = (table, name)
        old = self._entries.get(key)
        if old is not None:
            self._drop_payload(old, notify=False)
        entry = SegmentEntry(table=table, name=name, size_bytes=size_bytes,
                             num_docs=num_docs)
        self._entries[key] = entry
        if segment is not None:
            self._admit(entry, segment)
        self._publish_gauges()
        return entry

    def drop(self, table: str, name: str) -> bool:
        """Stop hosting (OFFLINE/DROPPED transition); True if hosted.

        No eviction callback fires — the state transition already moved
        the table's epoch."""
        entry = self._entries.pop((table, name), None)
        if entry is None:
            return False
        self._drop_payload(entry, notify=False)
        self._publish_gauges()
        return True

    # -- introspection -------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def entry(self, table: str, name: str) -> SegmentEntry | None:
        return self._entries.get((table, name))

    def names(self, table: str) -> list[str]:
        return sorted(name for (t, name) in self._entries if t == table)

    def entries(self, table: str | None = None) -> list[SegmentEntry]:
        return [entry for (t, __), entry in sorted(self._entries.items())
                if table is None or t == table]

    def num_docs(self, table: str) -> int:
        return sum(entry.num_docs for (t, __), entry in self._entries.items()
                   if t == table)

    # -- the query path: pin / unpin -----------------------------------------

    def pin(self, table: str, name: str,
            fetch: Callable[[str, str], "ImmutableSegment"],
            ) -> "ImmutableSegment":
        """Pin ``table/name`` resident and return the loaded segment,
        cold-loading through ``fetch`` on a miss. Balance every pin with
        exactly one :meth:`unpin`."""
        entry = self._entries.get((table, name))
        if entry is None:
            raise ClusterError(f"segment {table}/{name} is not hosted here")
        if entry.segment is not None:
            self._incr("store_hits")
            self.policy.on_access((table, name))
            entry.pins += 1
        else:
            self._incr("store_misses")
            segment = fetch(table, name)
            # The fetch may know the real size better than the ref did
            # (e.g. a ref registered from sparse realtime metadata).
            entry.size_bytes = max(entry.size_bytes,
                                   segment.estimated_size_bytes())
            entry.num_docs = segment.num_docs
            # Pin before admitting: the admission's own budget sweep
            # must never pick this entry as its victim.
            entry.pins += 1
            self._admit(entry, segment)
        self._incr("store_pins")
        self._publish_gauges()
        return entry.segment  # type: ignore[return-value]

    def unpin(self, table: str, name: str) -> None:
        entry = self._entries.get((table, name))
        if entry is None or entry.pins <= 0:
            return  # the segment was dropped while pinned (unload race)
        entry.pins -= 1
        if entry.pins == 0:
            if entry.resident and (entry.remote_only
                                   or self._over_budget(entry)):
                # Transient residency: tiered-off and over-budget
                # segments never stay past their last pin.
                self._evict(entry)
            # A query can pin more bytes than the budget (soft budget);
            # re-enforce now that this entry is evictable again.
            self._ensure_budget()
        self._publish_gauges()

    def _over_budget(self, entry: SegmentEntry) -> bool:
        return (self.budget_bytes is not None
                and entry.size_bytes > self.budget_bytes)

    # -- residency management ------------------------------------------------

    def resident(self, table: str, name: str) -> "ImmutableSegment | None":
        """The loaded segment if resident, without touching recency."""
        entry = self._entries.get((table, name))
        return entry.segment if entry is not None else None

    def set_remote_only(self, table: str, name: str,
                        remote: bool = True) -> bool:
        """Mark a segment tiered to the deep store (controller retention
        tiering): evict any resident payload and make future loads
        transient. True if the segment is hosted here."""
        entry = self._entries.get((table, name))
        if entry is None:
            return False
        entry.remote_only = remote
        if remote and entry.resident and entry.pins == 0:
            self._evict(entry)
        self._publish_gauges()
        return True

    def evict_all(self, table: str | None = None) -> int:
        """Drop every unpinned resident payload (memory-pressure and
        restart simulation); returns how many were evicted."""
        evicted = 0
        for (t, __), entry in sorted(self._entries.items()):
            if table is not None and t != table:
                continue
            if entry.resident and entry.pins == 0:
                self._evict(entry)
                evicted += 1
        self._publish_gauges()
        return evicted

    def _admit(self, entry: SegmentEntry, segment: "ImmutableSegment") -> None:
        entry.segment = segment
        self.resident_bytes += entry.size_bytes
        if not entry.remote_only and not self._over_budget(entry):
            self.policy.on_admit((entry.table, entry.name))
        self._ensure_budget()

    def _ensure_budget(self) -> None:
        if self.budget_bytes is None:
            return
        # Pinned entries cannot be evicted, so the budget is soft while
        # a query holds more bytes pinned than the budget allows.
        while self.resident_bytes > self.budget_bytes:
            key = self.policy.victim(self._evictable)
            if key is None:
                break
            self._evict(self._entries[key])

    def _evictable(self, key: Key) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.resident and entry.pins == 0

    def _evict(self, entry: SegmentEntry) -> None:
        self._drop_payload(entry, notify=True)
        self._incr("store_evictions")

    def _drop_payload(self, entry: SegmentEntry, notify: bool) -> None:
        self.policy.on_remove((entry.table, entry.name))
        if entry.segment is None:
            return
        entry.segment = None
        self.resident_bytes -= entry.size_bytes
        if notify and self._on_evict is not None:
            self._on_evict(entry.table, entry.name)

    # -- metrics -------------------------------------------------------------

    def _incr(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.incr(name)

    def _publish_gauges(self) -> None:
        if self._metrics is None:
            return
        self._metrics.gauge("store_resident_bytes", self.resident_bytes)
        self._metrics.gauge(
            "store_budget_bytes",
            self.budget_bytes if self.budget_bytes is not None else -1,
        )

    def stats(self) -> dict[str, float]:
        """A snapshot for tests and ops tooling."""
        entries = list(self._entries.values())
        return {
            "hosted": len(entries),
            "resident": sum(1 for e in entries if e.resident),
            "resident_bytes": self.resident_bytes,
            "budget_bytes": (self.budget_bytes
                             if self.budget_bytes is not None else -1),
            "pinned": sum(1 for e in entries if e.pins),
            "remote_only": sum(1 for e in entries if e.remote_only),
        }
