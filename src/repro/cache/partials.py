"""Per-server cache of sealed segments' partial results.

A sealed segment — pushed, or committed from realtime — never changes
(§3.1), so the :class:`~repro.engine.results.SegmentResult` a server
computed on it answers the same query text again, with no planning and
no scan. That is what repeated monitoring texts over a realtime table
need: the broker's result cache cannot serve them, because every ingest
moves the consuming offsets in its key, but most of the data they read
sits in sealed segments. Druid's historicals cache per-segment results
for the same reason.

The server decides what may be cached (docs/ARCHITECTURE.md, "Caching
& pruning"); this module keeps the entries:

* **Key.** ``(table, segment name, str(query), vectorized,
  skipPrune)``. ``str(query)`` and never the ``Query``: its ``==``
  treats ``s = 5`` and ``s = 5.0`` as equal and ignores options.
  ``skipPrune`` is in it because a hit skips the server's prune check.
* **Identity.** An entry holds a weak reference to the loaded segment
  it was computed on, and only that object gets a hit: a replaced,
  reloaded or re-fetched segment misses. (``SegmentMetadata`` holds
  no content hash, so only the object tells two loads of one name
  apart.) Changes made to a
  loaded segment in place — a virtual column — drop the table's
  entries through :meth:`SegmentPartialCache.drop_table`.
* **Admission.** A text's partials are stored only once the server
  sees it a second time: the doorkeeper is a bounded set of
  ``hash(query)`` ints, so a unique text costs one hash and one set
  probe, and the text is spelled out only for a repeated one.
* **Sharing.** Every later query shares a stored partial, so its
  arrays are made read-only: a merge that wrote into an input would
  raise instead of corrupting a later answer.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Hashable

import numpy as np

from repro.cache.lru import LruCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.results import SegmentResult
    from repro.obs.metrics import Metrics
    from repro.pql.ast_nodes import Query
    from repro.segment.segment import ImmutableSegment

#: Bounds of one server's cache.
MAX_ENTRIES = 1024
MAX_BYTES = 16 << 20
#: Query hashes the doorkeeper remembers; it starts over when full.
#: A full set holds ~70 KB: at 4 096, ``point_lookup``'s three servers
#: read +0.8 MB ``peak_rss_mb`` for a set that only ever says "new".
DOORKEEPER_HASHES = 1024


class SegmentPartialCache:
    """One server's bounded ``key -> SegmentResult`` cache, counted in
    the server's :class:`Metrics` (``segment_partial_hits`` /
    ``_misses`` / ``_admitted``, gauges ``segment_partial_entries`` /
    ``_bytes``)."""

    def __init__(self, metrics: Metrics):
        self._lru = LruCache(MAX_ENTRIES, MAX_BYTES)
        self._seen: set[int] = set()
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._lru)

    def admit(self, query: Query) -> str | None:
        """The text that keys ``query``'s partials once this server has
        seen the query before; None (and remember it) the first time."""
        sighting = hash(query)
        if sighting in self._seen:
            return str(query)
        if len(self._seen) >= DOORKEEPER_HASHES:
            self._seen.clear()
        self._seen.add(sighting)
        return None

    def get(self, key: Hashable,
            segment: ImmutableSegment) -> SegmentResult | None:
        """The partial stored under ``key`` for this very ``segment``
        object, or None."""
        entry = self._lru.get(key)
        if entry is not None and entry[0]() is segment:
            self._metrics.incr("segment_partial_hits")
            return entry[1]
        self._metrics.incr("segment_partial_misses")
        return None

    def put(self, key: Hashable, segment: ImmutableSegment,
            result: SegmentResult) -> None:
        self._lru.put(key, (weakref.ref(segment), result), _freeze(result))
        self._metrics.incr("segment_partial_admitted")
        self._gauge()

    def drop_table(self, table: str) -> None:
        """Forget every partial of ``table`` (its loaded segments
        changed in place)."""
        if self._lru.invalidate_where(lambda key: key[0] == table):
            self._gauge()

    def _gauge(self) -> None:
        self._metrics.gauge("segment_partial_entries", self._lru.stats.entries)
        self._metrics.gauge("segment_partial_bytes", self._lru.stats.bytes)


def _freeze(result: SegmentResult) -> int:
    """Make every numpy array in ``result``'s blocks read-only, and
    return a rough size of ``result`` in bytes. It runs once per stored
    partial, a few per query on a realtime table, so it walks the
    blocks' columns only: the stats are a fixed-size record."""
    columns: list[Any] = []
    if result.aggregation is not None:
        columns += result.aggregation.states
    if result.group_by is not None:
        columns += result.group_by.keys + result.group_by.states
    if result.selection is not None:
        columns += result.selection.data
    return 512 + sum(map(_freeze_column, columns))


def _freeze_column(value: Any) -> int:
    """:func:`_freeze` for one key, state or selection column, or one
    state in it: array buffers, 64 bytes per object-array cell, 8 per
    number in a sample or a sketch level, 16 per other scalar and a
    little per container or sketch."""
    kind = type(value)
    if kind in _SCALARS:
        return 16
    if kind is np.ndarray:
        value.flags.writeable = False
        return value.nbytes * (8 if value.dtype.kind == "O" else 1)
    if kind is list or kind is tuple:
        if set(map(type, value)) <= _SCALARS:  # a sample, a sketch level
            return 56 + 8 * len(value)
        return 56 + sum(map(_freeze_column, value))
    registers = getattr(value, "registers", None)  # a HyperLogLog
    if registers is not None:
        return 64 + _freeze_column(registers)
    return 64 + _freeze_column(getattr(value, "levels", 0))  # quantiles


_SCALARS = {int, float, bool, str, type(None), np.int64, np.float64,
            np.bool_}
