"""The broker result cache (layer 1 of the cache subsystem).

Caches whole :class:`~repro.engine.results.BrokerResponse` objects
under keys the broker builds from the normalized physical plan, the
routing-table version, the table's segment epoch, and (for realtime
tables) the consuming-segment offsets — see
``BrokerInstance._cache_key``. Because every ingredient of the key
changes when the underlying data or routing changes, entries never need
scanning: stale keys simply stop being looked up and age out by LRU.

The broker never stores partial responses or responses whose scatter
exhausted the query deadline; a cached entry is always a complete,
healthy answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.cache.lru import CacheStats, LruCache
from repro.engine.results import BrokerResponse


@dataclass(frozen=True)
class CachedResult:
    """One cached broker response plus its query-log footprint.

    The log entries are replayed on every hit so the controller's
    auto-index mining (§5.2) still observes the workload's true query
    frequencies — a cache must speed queries up, not hide them.
    """

    response: BrokerResponse
    log_entries: tuple[Any, ...]
    nbytes: int
    #: Virtual timestamp (``repro.net`` SimClock) when the entry was
    #: stored — an age an operator can read off, on the same timeline
    #: every other latency in the system is measured on.
    created_at: float = 0.0


class BrokerResultCache:
    """LRU + byte-budget cache of complete broker responses."""

    DEFAULT_MAX_ENTRIES = 1024
    DEFAULT_MAX_BYTES = 64 * 1024 * 1024

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None, clock=None):
        self._lru = LruCache(
            max_entries=(max_entries if max_entries is not None
                         else self.DEFAULT_MAX_ENTRIES),
            max_bytes=(max_bytes if max_bytes is not None
                       else self.DEFAULT_MAX_BYTES),
        )
        #: Optional SimClock; entries get created_at=0.0 without one.
        self.clock = clock

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: Hashable) -> CachedResult | None:
        return self._lru.get(key)

    def put(self, key: Hashable, response: BrokerResponse,
            log_entries: Sequence[Any] = ()) -> CachedResult:
        entry = CachedResult(
            response, tuple(log_entries),
            estimate_response_bytes(response),
            created_at=self.clock.now() if self.clock is not None else 0.0,
        )
        self._lru.put(key, entry, entry.nbytes)
        return entry

    def clear(self) -> None:
        self._lru.clear()


#: Responses of up to this many rows — a TOP 20 — are sized cell by
#: cell, longer ones column by column: one C-level type probe per
#: column, and one ``len`` pass over a column of strings. The cell loop
#: is the cheaper one on a few rows (a one-cell response costs 0.3 us
#: by cells and 1.2 us by columns; 20 rows cost 3.5 us either way), the
#: column walk beyond: 500 rows of three integers cost 126 us by cells
#: and 70 us by columns, 500 rows of a string and an integer 79 / 63 us.
CELLWISE_MAX_ROWS = 20

#: Cell types that are certainly not strings.
_NOT_TEXT = frozenset({int, float, bool, type(None)})


def estimate_response_bytes(response: BrokerResponse) -> int:
    """A rough, deterministic byte estimate for budget accounting.

    Row counts are bounded by LIMIT so this walks real cells; strings
    dominate real response sizes, so they are counted by length: 48
    bytes plus the length for a string cell, 16 bytes for any other.
    """
    total = 256  # fixed response envelope
    table = response.table
    total += 16 * len(table.columns)
    rows = table.rows
    if len(rows) <= CELLWISE_MAX_ROWS or len(set(map(len, rows))) > 1:
        for row in rows:
            total += 24  # tuple overhead
            for cell in row:
                total += 48 + len(cell) if isinstance(cell, str) else 16
    else:
        total += 24 * len(rows)
        for column in zip(*rows):
            total += 16 * len(column)
            kinds = set(map(type, column))
            if not kinds <= _NOT_TEXT:
                strings = (column if kinds == {str} else
                           [cell for cell in column if isinstance(cell, str)])
                total += 32 * len(strings) + sum(map(len, strings))
    for exc in (*response.exceptions, *response.recovered_exceptions):
        total += len(exc)
    return total
