"""Immutable columnar segments (§3.1, Fig 1).

A segment is a collection of records stored column-oriented: each
column has a sorted dictionary, a forward index of bit-packed
dictionary ids (or document ranges, for the sorted column), and
optionally a bitmap inverted index. Segment data is immutable; updates
happen by replacing whole segments (§3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.common.schema import Schema
from repro.common.types import FieldSpec
from repro.errors import SegmentError
from repro.segment.dictionary import Dictionary
from repro.segment.forward import (
    MultiValueForwardIndex,
    SingleValueForwardIndex,
    SortedForwardIndex,
)
from repro.segment.inverted import InvertedIndex
from repro.segment.metadata import ColumnMetadata, SegmentMetadata

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.segment.timeindex import TimeIndex
    from repro.startree.node import StarTree


class Column:
    """One column of an immutable segment: dictionary + indexes."""

    def __init__(
        self,
        spec: FieldSpec,
        dictionary: Dictionary,
        forward: SingleValueForwardIndex | SortedForwardIndex | MultiValueForwardIndex,
        metadata: ColumnMetadata,
        inverted: InvertedIndex | None = None,
    ):
        self.spec = spec
        self.dictionary = dictionary
        self.forward = forward
        self.metadata = metadata
        self.inverted = inverted
        self._decoded: np.ndarray | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_sorted(self) -> bool:
        return isinstance(self.forward, SortedForwardIndex)

    @property
    def is_multi_value(self) -> bool:
        return isinstance(self.forward, MultiValueForwardIndex)

    @property
    def num_docs(self) -> int:
        return self.forward.num_docs

    def dict_ids(self) -> np.ndarray:
        """Per-document dictionary ids (flattened for multi-value)."""
        if self.is_multi_value:
            raise SegmentError(
                f"column {self.name!r} is multi-value; use the forward "
                "index offsets"
            )
        return self.forward.dict_ids()

    def values(self) -> np.ndarray:
        """Decoded per-document values (single-value columns), memoised
        for the life of the segment object."""
        if self._decoded is None:
            self._decoded = self.dictionary.values_of(self.dict_ids())
        return self._decoded

    def value_of_doc(self, doc_id: int) -> Any:
        if self.is_multi_value:
            ids = self.forward.dict_ids_of(doc_id)
            return [self.dictionary.value_of(int(i)) for i in ids]
        return self.dictionary.value_of(self.forward.dict_id(doc_id))

    def ensure_inverted(self) -> InvertedIndex:
        """Build the inverted index on demand if absent (§3.2, §5.2)."""
        if self.inverted is None:
            self.inverted = InvertedIndex.build(
                self.forward, self.dictionary.cardinality
            )
            self.metadata.has_inverted_index = True
            self.metadata.inverted_bytes = self.inverted.nbytes
        return self.inverted


class ImmutableSegment:
    """A read-only segment hosting records for one table."""

    def __init__(
        self,
        metadata: SegmentMetadata,
        schema: Schema,
        columns: dict[str, Column],
        star_tree: "StarTree | None" = None,
        time_index: "TimeIndex | None" = None,
    ):
        self.metadata = metadata
        self.schema = schema
        self._columns = columns
        self.star_tree = star_tree
        self.time_index = time_index
        if star_tree is not None:
            metadata.has_star_tree = True
        if time_index is not None:
            metadata.has_time_index = True
        for name, column in columns.items():
            if column.num_docs != metadata.num_docs:
                raise SegmentError(
                    f"column {name!r} has {column.num_docs} docs, segment "
                    f"has {metadata.num_docs}"
                )

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.metadata.segment_name

    @property
    def table_name(self) -> str:
        return self.metadata.table_name

    @property
    def num_docs(self) -> int:
        return self.metadata.num_docs

    def estimated_size_bytes(self) -> int:
        """The segment's storage footprint for byte accounting.

        The single sizing authority shared by the server segment cache,
        table quota checks, blob-ref bandwidth accounting and the
        routing metadata brokers read — derived from the per-column
        index sizes in the metadata, with a floor covering the metadata
        envelope itself.
        """
        return max(1024, self.metadata.total_bytes)

    def __repr__(self) -> str:
        return (
            f"ImmutableSegment({self.name!r}, docs={self.num_docs}, "
            f"columns={list(self._columns)})"
        )

    # -- columns ------------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SegmentError(
                f"segment {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def add_virtual_column(self, column: Column) -> None:
        """Attach a synthetic/default-valued column (§3.2 pluggable
        loading, §5.2 schema evolution)."""
        if column.name in self._columns:
            raise SegmentError(f"column {column.name!r} already exists")
        if column.num_docs != self.num_docs:
            raise SegmentError("virtual column document count mismatch")
        self._columns[column.name] = column
        self.metadata.columns[column.name] = column.metadata

    def ensure_inverted_index(self, column_name: str) -> InvertedIndex:
        return self.column(column_name).ensure_inverted()

    # -- record access (used by minions for purge/rewrite) ----------------

    def record(self, doc_id: int) -> dict[str, Any]:
        return {
            name: col.value_of_doc(doc_id)
            for name, col in self._columns.items()
        }

    def iter_records(self) -> Iterator[dict[str, Any]]:
        for doc_id in range(self.num_docs):
            yield self.record(doc_id)

    def time_range(self) -> tuple[int, int] | None:
        if self.metadata.min_time is None or self.metadata.max_time is None:
            return None
        return self.metadata.min_time, self.metadata.max_time
