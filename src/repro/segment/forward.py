"""Forward indexes: the physical per-document value storage.

Three physical layouts, matching Pinot (§3.1, §4.2):

* :class:`SingleValueForwardIndex` — one bit-packed dictionary id per
  document.
* :class:`SortedForwardIndex` — for the table's physically sorted
  column. Documents are ordered by this column's value, so for each
  dictionary id only the ``(start, end)`` document range needs to be
  stored. Filters on this column become range lookups and downstream
  operators can work on contiguous document ranges (§4.2).
* :class:`MultiValueForwardIndex` — a flattened id array plus per-
  document offsets, for array-typed dimension columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SegmentError
from repro.segment.bitpack import PackedIntArray


class SingleValueForwardIndex:
    """Bit-packed dictionary ids, one per document."""

    kind = "single"

    def __init__(self, packed: PackedIntArray):
        self._packed = packed

    @classmethod
    def from_dict_ids(cls, dict_ids: np.ndarray) -> "SingleValueForwardIndex":
        return cls(PackedIntArray.from_values(dict_ids))

    @property
    def num_docs(self) -> int:
        return len(self._packed)

    @property
    def nbytes(self) -> int:
        return self._packed.nbytes

    def dict_ids(self) -> np.ndarray:
        """All dictionary ids as a uint32 array (cached unpack)."""
        return self._packed.to_numpy()

    def dict_id(self, doc_id: int) -> int:
        return self._packed[doc_id]

    def compact(self) -> None:
        """Reduce to the storage form (bit-packed ids only)."""
        self._packed.compact()


class SortedForwardIndex:
    """Forward index for the physically sorted column.

    Because documents are sorted by this column, the ids form a
    non-decreasing sequence; we store for each dictionary id the
    half-open document range ``[start, end)`` in which it appears.
    """

    kind = "sorted"

    def __init__(self, starts: np.ndarray, total_docs: int):
        # starts has cardinality + 1 entries; id i spans
        # [starts[i], starts[i + 1]).
        self._starts = starts.astype(np.int64)
        self._num_docs = total_docs
        if len(starts) < 2 or starts[0] != 0 or starts[-1] != total_docs:
            raise SegmentError("malformed sorted forward index bounds")

    @classmethod
    def from_sorted_dict_ids(cls, dict_ids: np.ndarray,
                             cardinality: int) -> "SortedForwardIndex":
        ids = np.asarray(dict_ids, dtype=np.int64)
        if len(ids) and np.any(np.diff(ids) < 0):
            raise SegmentError(
                "dict ids must be non-decreasing for a sorted column"
            )
        starts = np.searchsorted(ids, np.arange(cardinality + 1))
        return cls(starts.astype(np.int64), len(ids))

    @property
    def num_docs(self) -> int:
        return self._num_docs

    @property
    def cardinality(self) -> int:
        return len(self._starts) - 1

    @property
    def nbytes(self) -> int:
        return self._starts.nbytes

    @property
    def starts(self) -> np.ndarray:
        return self._starts

    def doc_range(self, dict_id: int) -> tuple[int, int]:
        """Document range [start, end) holding ``dict_id`` (§4.2)."""
        return int(self._starts[dict_id]), int(self._starts[dict_id + 1])

    def doc_range_for_ids(self, lo: int, hi: int) -> tuple[int, int]:
        """Document range covering dictionary ids in [lo, hi)."""
        lo = max(0, min(lo, self.cardinality))
        hi = max(lo, min(hi, self.cardinality))
        return int(self._starts[lo]), int(self._starts[hi])

    def dict_ids(self) -> np.ndarray:
        """Reconstruct the per-document id array."""
        counts = np.diff(self._starts)
        return np.repeat(
            np.arange(self.cardinality, dtype=np.uint32), counts
        )

    def dict_id(self, doc_id: int) -> int:
        return int(np.searchsorted(self._starts, doc_id, side="right") - 1)

    def compact(self) -> None:
        """The document ranges already are the storage form."""


class MultiValueForwardIndex:
    """Flattened bit-packed ids plus per-document offsets."""

    kind = "multi"

    def __init__(self, packed: PackedIntArray, offsets: np.ndarray):
        self._packed = packed
        self._offsets = offsets.astype(np.int64)
        if len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != len(packed):
            raise SegmentError("malformed multi-value offsets")

    @classmethod
    def from_id_lists(cls, id_lists: list[np.ndarray]) -> "MultiValueForwardIndex":
        lengths = np.fromiter((len(ids) for ids in id_lists), dtype=np.int64,
                              count=len(id_lists))
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = (np.concatenate(id_lists) if id_lists
                else np.empty(0, dtype=np.uint32))
        return cls(PackedIntArray.from_values(flat), offsets)

    @property
    def num_docs(self) -> int:
        return len(self._offsets) - 1

    @property
    def total_entries(self) -> int:
        return len(self._packed)

    @property
    def nbytes(self) -> int:
        return self._packed.nbytes + self._offsets.nbytes

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    def flat_ids(self) -> np.ndarray:
        return self._packed.to_numpy()

    def dict_ids_of(self, doc_id: int) -> np.ndarray:
        start, end = self._offsets[doc_id], self._offsets[doc_id + 1]
        return self._packed.to_numpy()[start:end]

    def compact(self) -> None:
        """Reduce to the storage form (bit-packed ids and offsets)."""
        self._packed.compact()

    def max_entries_per_doc(self) -> int:
        if self.num_docs == 0:
            return 0
        return int(np.diff(self._offsets).max())
