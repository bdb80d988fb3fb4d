"""The query cache & segment-prune subsystem.

Three layers make repeated site-facing traffic (the §5 WVMP /
share-analytics iceberg-query pattern) and repeated monitoring texts
over realtime tables cheap, and a Helix table epoch keeps the first one
honest:

* :class:`BrokerResultCache` — an LRU + byte-budget cache of whole
  broker responses, keyed on the normalized physical plan, the
  routing-table version, and a per-table *segment epoch* so offline
  tables get exact hits while realtime tables embed consuming-segment
  offsets in the key (staleness is zero by construction);
* the segment pruner (:mod:`repro.cache.pruner`) — the single owner of
  "which segments can this predicate not match": zone maps, bloom
  filters and partition metadata held against a WHERE clause taken
  apart once per (sub-)query. The broker asks it before the scatter,
  every server per resolved segment and in ``explain``, and
  partition-aware routing reads its EQ/IN values;
* :class:`SegmentPartialCache` — each server's bounded cache of the
  partials it computed on sealed segments, for texts it has seen
  before (:mod:`repro.cache.partials`).

Invalidation needs no messages: everything that changes what a table
serves — segment push, replacement, deletion, completion and tiering,
a replica entering or leaving a queryable state, an instance's death,
an eviction, an upsert-state change — bumps the table's epoch on the
``HelixManager`` (``bump_epoch`` / ``table_epoch``), and the broker's
key embeds it. The partial cache needs no epoch: an entry answers only
for the very segment object it was computed on. Decoded column
arrays are not a layer here: they live and die with their segment
object, which the per-server ``SegmentCache`` (:mod:`repro.store`)
bounds.
"""

from repro.cache.lru import CacheStats, LruCache
from repro.cache.partials import SegmentPartialCache
from repro.cache.pruner import (
    compile_pruner,
    equality_constraints,
    prune_reason,
)
from repro.cache.result_cache import BrokerResultCache, CachedResult

__all__ = [
    "BrokerResultCache",
    "CacheStats",
    "CachedResult",
    "LruCache",
    "SegmentPartialCache",
    "compile_pruner",
    "equality_constraints",
    "prune_reason",
]
