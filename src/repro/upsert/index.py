"""The per-server primary-key upsert index and valid-docId bitmaps.

One :class:`TableUpsertManager` lives on each server per upsert/dedup
table. It maintains, per stream partition, a map from primary key to
the key's current *winner* — the (segment, docId) holding the version
queries should see — plus a growable valid-docId bitmap per segment.
The query path intersects a segment's bitmap with the filter context
before evaluation (:func:`~repro.engine.executor.execute_segment`), so
superseded rows are invisible to both the vectorized and the scalar
engine.

Convergence across replicas, restarts and failovers comes from the
winner order being a *join semilattice*: a row's priority is
``(comparison value, segment sequence, docId)`` (or just
``(sequence, docId)`` for arrival-order tables), and applying rows is
commutative and idempotent under "greater priority wins". Replaying the
same rows in any order — live consumption, catch-up, a store download
after DISCARD, or a from-scratch rebuild after a segment drop — lands
every replica on the identical version map and bitmaps.

Dedup mode needs no bitmaps: duplicate keys are rejected at ingestion
(:meth:`TableUpsertManager.admit`), so committed segments only ever
hold first occurrences; the manager tracks the per-partition seen-key
sets that decision consults.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.engine.operators import DocSelection
from repro.upsert.config import UpsertConfig


def _plain(value: Any) -> Any:
    """Canonical Python value for keys/comparisons (numpy scalars from
    column arrays and plain values from stream records must collide)."""
    return value.item() if isinstance(value, np.generic) else value


def _parse_partition_sequence(segment_name: str) -> tuple[int, int]:
    # Realtime segment names are ``table__partition__sequence``.
    __, partition, sequence = segment_name.rsplit("__", 2)
    return int(partition), int(sequence)


class _ValidDocIds:
    """A growable valid-docId bitmap for one segment."""

    __slots__ = ("bits", "invalid", "version", "_cached_for",
                 "_cached_selection")

    def __init__(self) -> None:
        self.bits: list[bool] = []
        self.invalid = 0
        #: Bumped on every flip so selections can be cached per version.
        self.version = 0
        self._cached_for: tuple[int, int] | None = None
        self._cached_selection: DocSelection | None = None

    def set(self, doc_id: int, valid: bool) -> bool:
        """Set one bit; returns True when the bit actually changed."""
        while len(self.bits) <= doc_id:
            self.bits.append(True)
        if self.bits[doc_id] == valid:
            return False
        self.bits[doc_id] = valid
        self.invalid += -1 if valid else 1
        self.version += 1
        return True

    def selection(self, num_docs: int) -> DocSelection | None:
        """The bitmap as a DocSelection, or None when every doc is
        valid (callers keep their unmasked fast paths)."""
        if self.invalid == 0:
            return None
        cache_tag = (self.version, num_docs)
        if self._cached_for != cache_tag:
            mask = np.ones(num_docs, dtype=bool)
            bounded = min(num_docs, len(self.bits))
            mask[:bounded] = self.bits[:bounded]
            self._cached_selection = DocSelection.from_mask(mask)
            self._cached_for = cache_tag
        return self._cached_selection


class TableUpsertManager:
    """Primary-key index + valid bitmaps for one table on one server."""

    def __init__(self, table: str, config: UpsertConfig,
                 metrics=None):
        self.table = table
        self.config = config
        self.metrics = metrics
        #: partition -> key -> (priority, segment_name, doc_id).
        self._winners: dict[int, dict[tuple, tuple]] = {}
        #: segment -> valid bitmap (upsert mode only).
        self._valid: dict[str, _ValidDocIds] = {}
        #: partition -> seen primary keys (dedup mode only).
        self._seen: dict[int, set[tuple]] = {}
        #: Bumped whenever masking state over a segment *other than the
        #: one being applied* changes; when it moves, the server bumps
        #: the table's Helix epoch.
        self.state_epoch = 0
        #: Optional override for gauge updates; a server hosting several
        #: upsert tables installs a hook that sums across its managers
        #: (they share one per-server metrics registry).
        self.gauge_hook: Any = None

    # -- keys ---------------------------------------------------------------

    def key_of(self, record: Mapping[str, Any]) -> tuple:
        return tuple(_plain(record[c]) for c in self.config.key_columns)

    def _priority(self, record: Mapping[str, Any], sequence: int,
                  doc_id: int) -> tuple:
        comparison = self.config.comparison_column
        if comparison is None:
            return (sequence, doc_id)
        return (_plain(record[comparison]), sequence, doc_id)

    # -- introspection ------------------------------------------------------

    @property
    def keys_tracked(self) -> int:
        if self.config.is_dedup:
            return sum(len(seen) for seen in self._seen.values())
        return sum(len(winners) for winners in self._winners.values())

    def tracks(self, segment_name: str) -> bool:
        return segment_name in self._valid

    def bitmap_length(self, segment_name: str) -> int:
        bitmap = self._valid.get(segment_name)
        return len(bitmap.bits) if bitmap is not None else 0

    def winner(self, key: tuple) -> tuple[str, int] | None:
        """(segment, docId) currently serving ``key`` (tests/debugging)."""
        for winners in self._winners.values():
            entry = winners.get(tuple(_plain(k) for k in key))
            if entry is not None:
                return entry[1], entry[2]
        return None

    # -- dedup admission ----------------------------------------------------

    def admit(self, partition: int, record: Mapping[str, Any]) -> bool:
        """Dedup-mode ingestion gate: False means drop the row (its
        primary key was already ingested on this partition)."""
        assert self.config.is_dedup
        key = self.key_of(record)
        seen = self._seen.setdefault(partition, set())
        if key in seen:
            return False
        seen.add(key)
        self._gauge_keys()
        return True

    # -- applying rows ------------------------------------------------------

    def apply(self, segment_name: str, doc_id: int,
              record: Mapping[str, Any]) -> bool:
        """Register one stored row of ``segment_name`` with the index.

        Commutative and idempotent: re-applying a known row is a no-op,
        and any application order converges to the same winners. Returns
        True when a valid bit flipped in a *different* segment than the
        one being applied (i.e. already-committed data changed shape and
        cached results over it must be invalidated).
        """
        partition, sequence = _parse_partition_sequence(segment_name)
        if self.config.is_dedup:
            # Committed rows are first occurrences by construction; just
            # (re)register the key so admission survives rebuilds.
            self._seen.setdefault(partition, set()).add(self.key_of(record))
            self._gauge_keys()
            return False
        bitmap = self._valid.setdefault(segment_name, _ValidDocIds())
        winners = self._winners.setdefault(partition, {})
        key = self.key_of(record)
        priority = self._priority(record, sequence, doc_id)
        current = winners.get(key)
        if current is None:
            winners[key] = (priority, segment_name, doc_id)
            bitmap.set(doc_id, True)
            self._gauge_keys()
            return False
        current_priority, current_segment, current_doc = current
        if (current_segment, current_doc) == (segment_name, doc_id):
            return False  # idempotent re-application (rebuild, DISCARD)
        other_touched = False
        if priority > current_priority:
            winners[key] = (priority, segment_name, doc_id)
            bitmap.set(doc_id, True)
            displaced = self._valid.setdefault(current_segment,
                                               _ValidDocIds())
            if displaced.set(current_doc, False):
                self._count_masked()
                if current_segment != segment_name:
                    other_touched = True
        else:
            if bitmap.set(doc_id, False):
                self._count_masked()
        if other_touched:
            self.state_epoch += 1
        return other_touched

    def apply_segment(self, segment) -> bool:
        """Apply every row of a loaded immutable segment (restart,
        failover fill-in, DISCARD download). Returns True when any
        *other* segment's bitmap changed."""
        key_arrays = [segment.column(c).values()
                      for c in self.config.key_columns]
        comparison = self.config.comparison_column
        comparison_array = (segment.column(comparison).values()
                            if comparison is not None else None)
        partition, sequence = _parse_partition_sequence(segment.name)
        touched = False
        if self.config.is_dedup:
            seen = self._seen.setdefault(partition, set())
            for doc in range(segment.num_docs):
                seen.add(tuple(_plain(a[doc]) for a in key_arrays))
            self._gauge_keys()
            return False
        bitmap = self._valid.setdefault(segment.name, _ValidDocIds())
        winners = self._winners.setdefault(partition, {})
        for doc in range(segment.num_docs):
            key = tuple(_plain(a[doc]) for a in key_arrays)
            if comparison_array is None:
                priority: tuple = (sequence, doc)
            else:
                priority = (_plain(comparison_array[doc]), sequence, doc)
            current = winners.get(key)
            if current is None:
                winners[key] = (priority, segment.name, doc)
                bitmap.set(doc, True)
                continue
            current_priority, current_segment, current_doc = current
            if (current_segment, current_doc) == (segment.name, doc):
                continue
            if priority > current_priority:
                winners[key] = (priority, segment.name, doc)
                bitmap.set(doc, True)
                displaced = self._valid.setdefault(current_segment,
                                                   _ValidDocIds())
                if displaced.set(current_doc, False):
                    self._count_masked()
                    if current_segment != segment.name:
                        touched = True
            else:
                if bitmap.set(doc, False):
                    self._count_masked()
        self._gauge_keys()
        if touched:
            self.state_epoch += 1
        return touched

    # -- rebuild ------------------------------------------------------------

    def rebuild(self, segments: Iterable[Any],
                consuming: Iterable[tuple[str, Iterable[Mapping[str, Any]]]],
                ) -> None:
        """Drop all state and re-apply every hosted row (used after a
        segment leaves this server, when partial un-application would be
        error-prone). Application order does not matter."""
        self._winners.clear()
        self._valid.clear()
        self._seen.clear()
        for segment in segments:
            self.apply_segment(segment)
        for segment_name, records in consuming:
            for doc_id, record in enumerate(records):
                self.apply(segment_name, doc_id, record)
        self.state_epoch += 1
        if self.metrics is not None:
            self.metrics.incr("upsert_index_rebuilds")

    # -- query-path lookup --------------------------------------------------

    def selection_for(self, segment_name: str,
                      num_docs: int) -> DocSelection | None:
        """The valid-docId selection for one segment, or None when every
        doc is valid (including segments this manager never saw)."""
        bitmap = self._valid.get(segment_name)
        if bitmap is None:
            return None
        return bitmap.selection(num_docs)

    # -- metrics ------------------------------------------------------------

    def _count_masked(self) -> None:
        if self.metrics is not None:
            self.metrics.incr("upsert_rows_masked")

    def _gauge_keys(self) -> None:
        if self.gauge_hook is not None:
            self.gauge_hook()
        elif self.metrics is not None:
            self.metrics.gauge("upsert_keys_tracked", self.keys_tracked)
