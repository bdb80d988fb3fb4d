"""Bitmap-based inverted indexes (§3.2, §4.2).

For each dictionary id of a column, the inverted index stores a
:class:`~repro.segment.bitmap.RoaringBitmap` of the documents holding
that value. Indexes can be built either from a forward index at segment
build time or *on demand* after the segment is loaded — the paper's
append-only index file is what allows servers to add inverted indexes
without rewriting segments, and §5.2 notes that LinkedIn automatically
adds inverted indexes by mining query logs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.segment.bitmap import RoaringBitmap, sorted_unique, union_many
from repro.segment.forward import (
    MultiValueForwardIndex,
    SingleValueForwardIndex,
    SortedForwardIndex,
)

ForwardIndex = (
    SingleValueForwardIndex | SortedForwardIndex | MultiValueForwardIndex
)


class InvertedIndex:
    """Per-dictionary-id document bitmaps for one column.

    ``overlapping`` marks indexes over multi-value columns, where one
    document can appear under several dictionary ids; unions must then
    deduplicate. Single-value columns have disjoint per-id doc sets,
    which :meth:`union_doc_array` exploits.
    """

    def __init__(self, bitmaps: list[RoaringBitmap], num_docs: int,
                 overlapping: bool = False):
        self._bitmaps = bitmaps
        self._num_docs = num_docs
        self._overlapping = overlapping

    @classmethod
    def build(cls, forward: ForwardIndex, cardinality: int) -> "InvertedIndex":
        """Build from any forward index layout."""
        if isinstance(forward, SortedForwardIndex):
            bitmaps = [
                RoaringBitmap.full_range(*forward.doc_range(dict_id))
                for dict_id in range(cardinality)
            ]
            return cls(bitmaps, forward.num_docs)
        overlapping = isinstance(forward, MultiValueForwardIndex)
        if isinstance(forward, MultiValueForwardIndex):
            flat = forward.flat_ids()
            lengths = np.diff(forward.offsets)
            doc_ids = np.repeat(
                np.arange(forward.num_docs, dtype=np.uint32), lengths
            )
        else:
            flat = forward.dict_ids()
            doc_ids = np.arange(forward.num_docs, dtype=np.uint32)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        sorted_docs = doc_ids[order]
        bounds = np.searchsorted(sorted_ids, np.arange(cardinality + 1))
        bitmaps = []
        for dict_id in range(cardinality):
            docs = sorted_docs[bounds[dict_id]:bounds[dict_id + 1]]
            # Multi-value columns can repeat a doc; bitmaps dedupe, but
            # the slice is already sorted so from_sorted needs uniqueness.
            if len(docs) > 1 and np.any(np.diff(docs.astype(np.int64)) <= 0):
                docs = sorted_unique(docs)
            bitmaps.append(RoaringBitmap.from_sorted(docs).run_optimize())
        return cls(bitmaps, forward.num_docs, overlapping)

    @property
    def cardinality(self) -> int:
        return len(self._bitmaps)

    @property
    def num_docs(self) -> int:
        return self._num_docs

    @property
    def nbytes(self) -> int:
        return sum(b.memory_bytes() for b in self._bitmaps)

    def docs_for(self, dict_id: int) -> RoaringBitmap:
        """Documents containing the value with ``dict_id``."""
        return self._bitmaps[dict_id]

    def docs_for_ids(self, dict_ids: np.ndarray | list[int]) -> RoaringBitmap:
        """Union of document bitmaps for several ids (IN predicates)."""
        return union_many(self._bitmaps[int(i)] for i in dict_ids)

    def docs_for_id_range(self, lo: int, hi: int) -> RoaringBitmap:
        """Union over the contiguous id range [lo, hi) (range predicates)."""
        lo = max(0, lo)
        hi = min(hi, len(self._bitmaps))
        return union_many(self._bitmaps[lo:hi])

    def union_doc_array(
        self, ranges: Iterable[tuple[int, int]]
    ) -> np.ndarray:
        """Sorted doc-id array matching any id in the given ranges.

        Works on the bitmaps' cached materialized arrays; per-id doc
        sets are disjoint for single-value columns, so the union is a
        concatenate + sort (a dedup is added for multi-value columns).
        """
        parts = []
        for lo, hi in ranges:
            lo = max(0, lo)
            hi = min(hi, len(self._bitmaps))
            parts.extend(
                self._bitmaps[i].to_array() for i in range(lo, hi)
            )
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0].astype(np.int64)
        merged = np.concatenate(parts).astype(np.int64)
        if self._overlapping:
            return sorted_unique(merged)
        merged.sort()
        return merged
