"""Segment builder: raw records -> :class:`ImmutableSegment`.

The builder normalizes records against the schema as they are added and
holds them column-wise — per column an insertion-ordered dictionary and
the per-document ids into it. Building optionally reorders documents
physically by a *sorted column* (§4.2), gives every column its sorted
dictionary and bit-packed forward index, builds requested inverted
indexes, computes the column statistics the planner relies on, and
optionally attaches a star-tree (§4.3). A consuming segment
(:mod:`repro.segment.mutable`) keeps its rows in a builder and asks it
for a segment after every ingest step, so what one build leaves behind
— a column's sorted dictionary, its ids under that dictionary — is kept
and extended by the next one instead of recomputed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import Any, Iterable, Mapping

import numpy as np

from repro.common.schema import Schema
from repro.common.types import FieldSpec
from repro.errors import SchemaError, SegmentError
from repro.segment.bitpack import PackedIntArray, bits_required
from repro.segment.dictionary import Dictionary
from repro.segment.forward import (
    MultiValueForwardIndex,
    SingleValueForwardIndex,
    SortedForwardIndex,
)
from repro.segment.inverted import InvertedIndex
from repro.segment.metadata import ColumnMetadata, SegmentMetadata
from repro.segment.segment import Column, ImmutableSegment


@dataclass(frozen=True)
class StarTreeConfig:
    """Build options for a segment's star-tree (§4.3).

    Attributes:
        dimensions: Split order; None selects all dimension columns
            ordered by descending cardinality (the conventional order —
            high-cardinality first maximizes pruning).
        max_leaf_records: Stop splitting below this record count.
        metrics: Metric columns to pre-aggregate; None = all metrics.
    """

    dimensions: tuple[str, ...] | None = None
    max_leaf_records: int = 100
    metrics: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.max_leaf_records < 1:
            raise SegmentError("max_leaf_records must be >= 1")


@dataclass
class SegmentConfig:
    """Build-time options for a segment.

    Attributes:
        sorted_column: Column by which to physically reorder records; its
            forward index becomes a :class:`SortedForwardIndex` (§4.2).
        inverted_columns: Columns to build bitmap inverted indexes for
            at build time (more can be added on demand later).
        star_tree: Optional star-tree configuration (§4.3).
        partition_column / num_partitions: When set, the builder records
            the partition id of the segment's data for partition-aware
            routing (§4.4); all records must map to one partition.
        timestamp_index: Time granularities (in time-column units) to
            pre-aggregate into rollups at build time; the planner serves
            aligned ``GROUP BY timebucket(...)`` queries from them.
    """

    sorted_column: str | None = None
    inverted_columns: tuple[str, ...] = ()
    #: Columns to build distinct-value bloom filters for; the broker
    #: uses them to prune whole segments for EQ/IN queries.
    bloom_columns: tuple[str, ...] = ()
    star_tree: StarTreeConfig | None = None
    partition_column: str | None = None
    num_partitions: int | None = None
    timestamp_index: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if (self.partition_column is None) != (self.num_partitions is None):
            raise SegmentError(
                "partition_column and num_partitions must be set together"
            )


#: numpy's reading of ``array("I")``, the growable id buffers.
_ID_DTYPE = np.dtype(f"u{array('I').itemsize}")
#: A large batch is normalized and appended this many rows at a time,
#: so no more than these are ever held both as records and as columns.
_APPEND_ROWS = 4096


class _ColumnBuffer:
    """One column of the rows added so far, append-only.

    ``seen`` is the mutable dictionary: value -> insertion id, in
    arrival order. ``ids`` holds one insertion id per document (per
    entry for a multi-value column, whose ``offsets`` mark each
    document's run). Insertion ids never change; the *sorted* ids a
    segment needs are ``rank[ids]``, and :meth:`encode` keeps ``rank``,
    the sorted dictionary and the sorted ids from one call to the next.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.seen: dict[Any, int] = {}
        self.ids = array("I")
        self.offsets = array("q", [0]) if spec.multi_value else None
        self._values = np.empty(0, dtype=spec.dtype.numpy_dtype)  # sorted
        self._rank = np.empty(0, dtype=np.uint32)
        self._dictionary: Dictionary | None = None
        self._sorted_ids = np.empty(0, dtype=np.uint32)
        self._partitions: set[int] = set()
        self._partitioned = 0  # distinct values _partitions covers

    def extend(self, cells: list) -> None:
        """Append one normalized cell per new document."""
        if self.offsets is not None:
            ends = accumulate(map(len, cells), initial=len(self.ids))
            self.offsets.extend(islice(ends, 1, None))
            cells = list(chain.from_iterable(cells))
        seen = self.seen
        # First-arrival ids as setdefault would give them, with the new
        # distinct values found and numbered by C loops.
        new = [cell for cell in dict.fromkeys(cells) if cell not in seen]
        seen.update(zip(new, range(len(seen), len(seen) + len(new))))
        self.ids.extend(map(seen.__getitem__, cells))

    def append(self, cell: Any) -> None:
        """Append the normalized cell of one new document."""
        seen = self.seen
        if self.offsets is None:
            self.ids.append(seen.setdefault(cell, len(seen)))
        else:
            self.ids.extend([seen.setdefault(value, len(seen))
                             for value in cell])
            self.offsets.append(len(self.ids))

    def cells(self) -> list:
        """The normalized cells back, one per document."""
        values = list(self.seen)
        flat = [values[i] for i in self.ids]
        if self.offsets is None:
            return flat
        return [flat[start:end]
                for start, end in zip(self.offsets, self.offsets[1:])]

    def encode(self) -> tuple[Dictionary, np.ndarray]:
        """The column's sorted dictionary and its per-entry ids under
        it. Costs the entries added since the last call, plus one
        gather over all of them when the column gained a distinct
        value. The arrays returned are never written again."""
        if not self.seen:
            # An all-empty multi-value column still needs a dictionary.
            return (Dictionary(self.spec.dtype, [self.spec.default]),
                    self._sorted_ids)
        if len(self.seen) > len(self._rank):
            self._merge_new_values()
            self._sorted_ids = self._sorted_ids[:0]  # every id may move
        done = len(self._sorted_ids)
        if done < len(self.ids):
            new = np.frombuffer(self.ids[done:], dtype=_ID_DTYPE)
            self._sorted_ids = np.concatenate(
                (self._sorted_ids, self._rank.take(new))
            )
        return self._dictionary, self._sorted_ids

    def _merge_new_values(self) -> None:
        """Bring the sorted dictionary and ``rank`` up to ``seen``:
        sort only the values that arrived since the last merge and
        splice them into the sorted ones."""
        ranked = len(self._rank)
        new = np.asarray(list(islice(self.seen, ranked, None)),
                         dtype=self._values.dtype)
        order = np.argsort(new, kind="stable")
        new = new[order]
        at = np.searchsorted(self._values, new)
        # An old value moves up by the new values spliced in at or
        # before its place; new value j lands j places after its own.
        moved = np.cumsum(np.bincount(at, minlength=ranked + 1))
        landing = at + np.arange(len(new))
        values = np.empty(ranked + len(new), dtype=self._values.dtype)
        values[np.arange(ranked) + moved[:ranked]] = self._values
        values[landing] = new
        rank = np.empty(len(values), dtype=np.uint32)
        rank[:ranked] = self._rank + moved[self._rank]
        rank[ranked + order] = landing
        self._dictionary = Dictionary(self.spec.dtype, values)
        self._values = values
        self._rank = rank

    def partitions(self, num_partitions: int) -> set[int]:
        """The Kafka partitions the column's distinct values map to."""
        from repro.kafka.partitioner import kafka_partition

        self._partitions.update(
            kafka_partition(value, num_partitions)
            for value in islice(self.seen, self._partitioned, None)
        )
        self._partitioned = len(self.seen)
        return self._partitions


@dataclass
class SegmentBuilder:
    """Accumulates records and builds an immutable segment."""

    segment_name: str
    table_name: str
    schema: Schema
    config: SegmentConfig = field(default_factory=SegmentConfig)

    def __post_init__(self) -> None:
        self._columns: dict[str, _ColumnBuffer] = {}
        self._num_rows = 0
        if self.config.sorted_column is not None:
            spec = self.schema.field(self.config.sorted_column)
            if spec.multi_value:
                raise SegmentError("sorted column cannot be multi-value")
        for name in (*self.config.inverted_columns,
                     *self.config.bloom_columns):
            self.schema.field(name)  # validates existence

    def add(self, record: Mapping[str, Any]) -> None:
        """Validate one record and append it, or raise and append
        nothing. Row by row: on one record a probe per column would
        cost more than it saves."""
        self.append(self.schema.normalize(record))

    def append(self, row: Mapping[str, Any]) -> None:
        """Append one row that :meth:`Schema.normalize` of this
        builder's schema returned, without validating it again."""
        for spec in self.schema:
            self._column(spec).append(row[spec.name])
        self._num_rows += 1

    def add_all(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Validate the batch column by column, a slice at a time, and
        append it to every column. A slice that fails validation is
        replayed record by record, so the first invalid record raises
        what :meth:`Schema.normalize` raises and the records ahead of
        it are kept."""
        pending = iter(records)
        while rows := list(islice(pending, _APPEND_ROWS)):
            try:
                columns = self.schema.normalize_columns(rows)
            except SchemaError:
                for record in rows:
                    self.add(record)
            else:
                for spec in self.schema:
                    self._column(spec).extend(columns[spec.name])
                self._num_rows += len(rows)
            if len(rows) < _APPEND_ROWS:
                break

    def __len__(self) -> int:
        return self._num_rows

    def records(self, order: np.ndarray | None = None) -> list[dict[str, Any]]:
        """The normalized records, in arrival order or in ``order``."""
        names = self.schema.column_names
        rows = [
            dict(zip(names, cells))
            for cells in zip(*(self._column(spec).cells()
                               for spec in self.schema))
        ]
        if order is not None:
            rows = [rows[i] for i in order.tolist()]
        return rows

    def _column(self, spec: FieldSpec) -> _ColumnBuffer:
        buffer = self._columns.get(spec.name)
        if buffer is None:
            # Also a column the schema gained after rows arrived
            # (§5.2): the rows already here read its default.
            buffer = self._columns[spec.name] = _ColumnBuffer(spec)
            if self._num_rows:
                buffer.extend([spec.coerce(None)] * self._num_rows)
        return buffer

    # -- build ----------------------------------------------------------

    def build(self) -> ImmutableSegment:
        """The segment to push or commit: everything ``config`` asks
        for, forward indexes in their bit-packed storage form."""
        segment = self.assemble(self.config)
        for name in segment.column_names:
            segment.column(name).forward.compact()
        return segment

    def assemble(self, config: SegmentConfig) -> ImmutableSegment:
        """A segment over the rows added so far, under ``config`` — the
        one column-wise build. Forward indexes keep their ids unpacked;
        nothing it returns changes when more rows are added."""
        if not self._num_rows:
            raise SegmentError(
                f"segment {self.segment_name!r} has no records"
            )
        encoded = {
            spec.name: self._column(spec).encode() for spec in self.schema
        }
        sorted_col = config.sorted_column
        order = None
        if sorted_col is not None:
            # Ids rank values, so this is sorted(records, key=value).
            order = np.argsort(encoded[sorted_col][1], kind="stable")

        columns: dict[str, Column] = {}
        for spec in self.schema:
            dictionary, ids = encoded[spec.name]
            offsets = None
            if spec.multi_value:
                offsets = np.array(self._columns[spec.name].offsets,
                                   dtype=np.int64)
                if order is not None:
                    ids, offsets = _reorder_cells(ids, offsets, order)
            elif order is not None:
                ids = ids[order]
            columns[spec.name] = _make_column(spec, dictionary, ids,
                                              offsets, config)

        metadata = SegmentMetadata(
            segment_name=self.segment_name,
            table_name=self.table_name,
            num_docs=self._num_rows,
            columns={name: col.metadata for name, col in columns.items()},
            sorted_column=sorted_col,
            time_column=self.schema.time_column,
        )
        if self.schema.time_column is not None:
            times = columns[self.schema.time_column].metadata
            metadata.min_time = int(times.min_value)
            metadata.max_time = int(times.max_value)
        if config.partition_column is not None:
            self._fill_partition_metadata(metadata, config)

        star_tree = time_index = None
        if config.star_tree is not None or config.timestamp_index:
            # These two builders take records.
            records = self.records(order)
        if config.star_tree is not None:
            from repro.startree.builder import build_star_tree

            star_tree = build_star_tree(self.schema, records,
                                        config.star_tree)
        if config.timestamp_index:
            from repro.segment.timeindex import build_time_index

            time_index = build_time_index(
                self.schema, records, config.timestamp_index
            )
            if time_index is not None:
                metadata.time_index_bytes = time_index.nbytes
        return ImmutableSegment(metadata, self.schema, columns, star_tree,
                                time_index)

    def _fill_partition_metadata(self, metadata: SegmentMetadata,
                                 config: SegmentConfig) -> None:
        column = config.partition_column
        num = config.num_partitions
        partitions = self._columns[column].partitions(num)
        if len(partitions) != 1:
            raise SegmentError(
                f"segment {self.segment_name!r} spans partitions "
                f"{sorted(partitions)}; a partitioned segment must hold "
                "exactly one partition"
            )
        metadata.partition_column = column
        metadata.num_partitions = num
        (metadata.partition_id,) = partitions


def _make_column(spec: FieldSpec, dictionary: Dictionary, ids: np.ndarray,
                 offsets: np.ndarray | None, config: SegmentConfig) -> Column:
    """One column's indexes and statistics from its sorted dictionary
    and per-document ids (flat ids plus offsets when multi-value)."""
    name = spec.name
    cardinality = dictionary.cardinality
    is_sorted_column = name == config.sorted_column
    forward: Any
    if offsets is not None:
        forward = MultiValueForwardIndex(PackedIntArray.from_values(ids),
                                         offsets)
    elif is_sorted_column:
        forward = SortedForwardIndex.from_sorted_dict_ids(ids, cardinality)
    else:
        forward = SingleValueForwardIndex.from_dict_ids(ids)
    inverted = None
    if name in config.inverted_columns:
        inverted = InvertedIndex.build(forward, cardinality)
    meta = ColumnMetadata(
        name=name,
        dtype=spec.dtype,
        role=spec.role,
        cardinality=cardinality,
        min_value=dictionary.value_of(0),
        max_value=dictionary.value_of(cardinality - 1),
        multi_value=offsets is not None,
        is_sorted=is_sorted_column,
        has_inverted_index=inverted is not None,
        total_docs=forward.num_docs,
        total_entries=len(ids),
        bit_width=bits_required(cardinality - 1),
        dictionary_bytes=dictionary.nbytes,
        forward_bytes=forward.nbytes,
        inverted_bytes=inverted.nbytes if inverted else 0,
    )
    if name in config.bloom_columns:
        from repro.segment.bloom import BloomFilter

        bloom = BloomFilter.for_capacity(cardinality, fpp=0.01)
        bloom.add_many(dictionary.to_list())
        meta.bloom = bloom.to_payload()
    return Column(spec, dictionary, forward, meta, inverted)


def _reorder_cells(flat: np.ndarray, offsets: np.ndarray,
                   order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A multi-value column's entries and offsets with its documents
    taken in ``order``."""
    lengths = np.diff(offsets)[order]
    moved = np.concatenate(([0], np.cumsum(lengths)))
    # Entry k of the output is entry k - moved[d] of old document
    # order[d], for the output document d it falls in.
    source = (np.repeat(offsets[:-1][order] - moved[:-1], lengths)
              + np.arange(moved[-1]))
    return flat[source], moved
