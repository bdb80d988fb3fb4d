"""Mutable (consuming) realtime segments (§3.3.1, §3.3.6).

While a replica is in the CONSUMING state it appends Kafka events to a
mutable in-memory segment. Queries must see those rows with seconds-level
freshness, so the mutable segment can produce a queryable snapshot at
any time; when the end criteria is reached the segment is *sealed* into
a regular immutable segment, flushed, and committed.

Rows are indexed as they arrive: they live column-wise in a
:class:`SegmentBuilder` (a mutable dictionary and an id array per
column), a snapshot is that builder's segment over the rows so far —
costing the rows added since the last one, not the rows consumed —
and sealing is the same builder's :meth:`~SegmentBuilder.build`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.common.schema import Schema
from repro.errors import SegmentError
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.segment import ImmutableSegment


class MutableSegment:
    """An append-only in-memory segment for realtime consumption."""

    def __init__(self, segment_name: str, table_name: str, schema: Schema,
                 config: SegmentConfig | None = None):
        self.segment_name = segment_name
        self.table_name = table_name
        self.config = config or SegmentConfig()
        self._rows = SegmentBuilder(segment_name, table_name, schema,
                                    self.config)
        self._sealed = False
        # Snapshot cache: a new immutable view is only needed when new
        # rows have arrived since the last snapshot.
        self._snapshot: ImmutableSegment | None = None
        self.start_offset: int | None = None
        self.end_offset: int | None = None

    @property
    def schema(self) -> Schema:
        return self._rows.schema

    @schema.setter
    def schema(self, schema: Schema) -> None:
        """A column the schema gains reads its default in the rows
        already consumed (§5.2)."""
        self._rows.schema = schema

    # -- ingestion -------------------------------------------------------

    def index(self, record: Mapping[str, Any]) -> None:
        """Append one event (already decoded from the stream)."""
        self._open_rows().add(record)

    def index_row(self, row: Mapping[str, Any]) -> None:
        """Append one row already normalized by :attr:`schema` (a
        caller that needed the validated row first, e.g. upsert)."""
        self._open_rows().append(row)

    def index_all(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Append a batch of events: each is validated once, here."""
        self._open_rows().add_all(records)

    def _open_rows(self) -> SegmentBuilder:
        if self._sealed:
            raise SegmentError(
                f"segment {self.segment_name!r} is sealed; cannot index"
            )
        return self._rows

    @property
    def num_docs(self) -> int:
        return len(self._rows)

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    def records(self) -> list[dict[str, Any]]:
        """The normalized records consumed so far, in arrival order."""
        return self._rows.records()

    def estimated_size_bytes(self) -> int:
        """Byte accounting for an in-flight consuming segment.

        The estimate is row-shaped: rows x columns x 8 bytes, the same
        floor the sealed form's metadata-derived size bottoms out at.
        """
        return max(1024, self.num_docs * len(self.schema.column_names) * 8)

    # -- querying --------------------------------------------------------

    def snapshot(self) -> ImmutableSegment | None:
        """A queryable immutable view of the rows consumed so far.

        Returns None while empty. The snapshot is cached until new rows
        arrive, and a returned snapshot never changes: documents are in
        arrival order, and of the build config only the inverted
        indexes and the partition are applied — physical sort, bloom
        filters, star-tree and timestamp index wait for the seal.
        """
        if not self.num_docs:
            return None
        if (self._snapshot is None
                or self._snapshot.num_docs != self.num_docs):
            self._snapshot = self._rows.assemble(SegmentConfig(
                inverted_columns=self.config.inverted_columns,
                partition_column=self.config.partition_column,
                num_partitions=self.config.num_partitions,
            ))
        return self._snapshot

    def invalidate_snapshot(self) -> None:
        """Force the next :meth:`snapshot` to be a new one (e.g. after
        a schema change added a column)."""
        self._snapshot = None

    # -- sealing -----------------------------------------------------------

    def seal(self) -> ImmutableSegment:
        """Freeze into a fully built immutable segment (flush, §3.3.6).

        Sealing applies the full build config — physical sort order,
        inverted indexes, star-tree — which consuming segments skip;
        this mirrors how offline/completed segments are better optimized
        than consuming ones.
        """
        if not self.num_docs:
            raise SegmentError(
                f"cannot seal empty segment {self.segment_name!r}"
            )
        sealed = self._rows.build()
        self._sealed = True
        return sealed

    def discard_and_replace(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Replace local rows with an authoritative copy (DISCARD, §3.3.6)."""
        if self._sealed:
            raise SegmentError("cannot replace rows of a sealed segment")
        rows = SegmentBuilder(self.segment_name, self.table_name,
                              self.schema, self.config)
        rows.add_all(records)
        self._rows = rows
        self.invalidate_snapshot()
