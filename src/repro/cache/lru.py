"""A small LRU cache with entry- and byte-budget eviction.

Backs the broker result cache and each server's segment-partial cache
(:mod:`repro.cache.partials`). Values are opaque; the caller supplies
the byte estimate at insert time (responses know their own sizes, and a
generic ``sys.getsizeof`` would under-count them).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass
class CacheStats:
    """Observable counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    bytes: int = 0
    entries: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bytes": self.bytes,
            "entries": self.entries,
            "hit_ratio": self.hit_ratio,
        }


class LruCache:
    """LRU over ``key -> value`` bounded by entry count and total bytes."""

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or miss and updating recency."""
        try:
            value, __ = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Look up without touching recency or hit/miss counters."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else default

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> None:
        """Insert/replace ``key`` and evict LRU entries over budget.

        An entry larger than the whole byte budget is not admitted at
        all (it would only evict everything else for a single-use
        resident).
        """
        if self._max_bytes is not None and nbytes > self._max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.stats.bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.stats.bytes += nbytes
        self.stats.entries = len(self._entries)
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        while (
            (self._max_entries is not None
             and len(self._entries) > self._max_entries)
            or (self._max_bytes is not None
                and self.stats.bytes > self._max_bytes)
        ):
            __, (__, nbytes) = self._entries.popitem(last=False)
            self.stats.bytes -= nbytes
            self.stats.evictions += 1
            self.stats.entries = len(self._entries)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True if it existed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.stats.bytes -= entry[1]
        self.stats.invalidations += 1
        self.stats.entries = len(self._entries)
        return True

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; how many."""
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            self.invalidate(key)
        return len(doomed)

    def clear(self) -> None:
        for key in list(self._entries):
            self.invalidate(key)
