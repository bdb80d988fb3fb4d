"""Upsert/dedup table configuration.

An upsert table keeps appending immutable rows but serves only the
*latest* version of each primary key; a dedup table drops rows whose
primary key was already ingested. Both require the stream to be
partitioned by the primary key (see ``repro.kafka.partitioner``), so
every version of a key lands on one partition and the per-partition
index in :mod:`repro.upsert.index` sees them all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ClusterError

MODE_UPSERT = "upsert"
MODE_DEDUP = "dedup"


@dataclass(frozen=True)
class UpsertConfig:
    """Primary-key semantics for one realtime table.

    Attributes:
        mode: ``"upsert"`` masks superseded versions at query time;
            ``"dedup"`` drops duplicate-key rows at ingestion time.
        key_columns: The primary key (one or more single-value columns).
        comparison_column: Upsert only — the version with the greatest
            value in this column wins; ties (and ``None``) fall back to
            stream arrival order, so replay on any replica converges to
            the same winner.
    """

    mode: str
    key_columns: tuple[str, ...]
    comparison_column: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in (MODE_UPSERT, MODE_DEDUP):
            raise ClusterError(
                f"upsert mode must be {MODE_UPSERT!r} or {MODE_DEDUP!r}, "
                f"got {self.mode!r}"
            )
        if not self.key_columns:
            raise ClusterError("upsert config needs at least one key column")
        # Frozen dataclass: normalize via object.__setattr__.
        object.__setattr__(self, "key_columns", tuple(self.key_columns))
        if self.comparison_column is not None and self.mode != MODE_UPSERT:
            raise ClusterError(
                "comparison_column only applies to upsert mode"
            )
        if self.comparison_column in self.key_columns:
            raise ClusterError(
                "comparison_column cannot be part of the primary key"
            )

    @property
    def is_dedup(self) -> bool:
        return self.mode == MODE_DEDUP
