"""Segment and column metadata (§3.2).

The segment metadata file "provides information about the set of columns
in the segment, their type, cardinality, encoding, various statistics,
and the indexes available for that column". The query planner uses it
to pick physical operators (metadata-only plans, match-all shortcuts,
cost-based operator ordering — §3.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.types import DataType, FieldRole

if TYPE_CHECKING:  # pragma: no cover
    from repro.segment.bloom import BloomFilter


@dataclass
class ColumnMetadata:
    """Statistics and index availability for one column."""

    name: str
    dtype: DataType
    role: FieldRole
    cardinality: int
    min_value: Any
    max_value: Any
    multi_value: bool = False
    is_sorted: bool = False
    has_dictionary: bool = True
    has_inverted_index: bool = False
    total_docs: int = 0
    total_entries: int = 0  # > total_docs for multi-value columns
    bit_width: int = 0
    dictionary_bytes: int = 0
    forward_bytes: int = 0
    inverted_bytes: int = 0
    #: Serialized distinct-value bloom filter (None when not built);
    #: small enough to travel with segment metadata for broker pruning.
    bloom: dict | None = None

    @property
    def total_bytes(self) -> int:
        return self.dictionary_bytes + self.forward_bytes + self.inverted_bytes

    @property
    def bloom_filter(self) -> "BloomFilter | None":
        """:attr:`bloom` parsed, once per payload: a loaded segment's
        pruner probes the same filter on every query."""
        if self.bloom is None:
            return None
        memo = self.__dict__.get("_parsed_bloom")
        if memo is None or memo[0] is not self.bloom:
            from repro.segment.bloom import BloomFilter

            memo = (self.bloom, BloomFilter.from_payload(self.bloom))
            self._parsed_bloom = memo
        return memo[1]


@dataclass
class SegmentMetadata:
    """Metadata for a whole segment."""

    segment_name: str
    table_name: str
    num_docs: int
    columns: dict[str, ColumnMetadata] = field(default_factory=dict)
    sorted_column: str | None = None
    time_column: str | None = None
    min_time: int | None = None
    max_time: int | None = None
    partition_column: str | None = None
    partition_id: int | None = None
    num_partitions: int | None = None
    has_star_tree: bool = False
    push_time_ms: int = 0
    has_time_index: bool = False
    #: Serialized size of the timestamp-index rollups (store sizing).
    time_index_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return (sum(c.total_bytes for c in self.columns.values())
                + self.time_index_bytes)

    def column(self, name: str) -> ColumnMetadata:
        return self.columns[name]
