"""Table configuration (§3.1-3.3).

Pinot tables come in two types — OFFLINE (segments pushed from Hadoop)
and REALTIME (segments consumed from Kafka) — and a *hybrid* table is
simply an offline and a realtime table sharing the same logical name
and time column; the broker rewrites queries across the time boundary
(§3.3.3). Physical table names carry the type suffix, e.g.
``events_OFFLINE`` / ``events_REALTIME``, as in production Pinot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator, Mapping
from weakref import WeakKeyDictionary

from repro.common.records import from_plain, to_plain
from repro.common.schema import Schema
from repro.common.timeutils import TimeGranularity, TimeUnit
from repro.errors import ClusterError
from repro.segment.builder import SegmentConfig
from repro.upsert.config import UpsertConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.helix.manager import HelixManager


class TableType(enum.Enum):
    OFFLINE = "OFFLINE"
    REALTIME = "REALTIME"


@dataclass
class StreamConfig:
    """Realtime consumption settings (§3.3.6)."""

    topic: str
    #: Flush (complete) a consuming segment after this many rows.
    flush_threshold_rows: int = 5000
    #: ... or after this many consumption ticks (simulated time), so
    #: segments on quiet partitions still complete (§3.3.6: "after a
    #: configurable number of records and after a configurable amount
    #: of time").
    flush_threshold_ticks: int | None = None
    #: Records consumed per poll per tick (consumption speed knob).
    records_per_poll: int = 500


@dataclass
class PartitionConfig:
    """Partitioned-table settings for partition-aware routing (§4.4)."""

    column: str
    num_partitions: int


@dataclass
class TableConfig:
    """Configuration for one physical (typed) table."""

    logical_name: str
    table_type: TableType
    schema: Schema
    replication: int = 1
    #: Retention window in time-column units; None keeps data forever.
    retention: int | None = None
    retention_granularity: TimeGranularity = field(
        default_factory=lambda: TimeGranularity(TimeUnit.DAYS)
    )
    #: Storage quota in bytes; uploads beyond it are rejected (§3.3.5).
    quota_bytes: int | None = None
    #: Segments whose max_time is older than this (time-column units)
    #: are tiered to remote-only: still queryable, but never held
    #: resident in server memory between queries (docs/STORAGE.md).
    #: None disables tiering.
    tier_to_remote_after: int | None = None
    segment_config: SegmentConfig = field(default_factory=SegmentConfig)
    #: "balanced" | "large_cluster" | "partition_aware"
    routing_strategy: str = "balanced"
    routing_options: dict[str, Any] = field(default_factory=dict)
    partition: PartitionConfig | None = None
    stream: StreamConfig | None = None
    tenant: str = "DefaultTenant"
    #: Primary-key upsert/dedup semantics (realtime tables only).
    upsert: UpsertConfig | None = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ClusterError("replication must be >= 1")
        if self.table_type is TableType.REALTIME and self.stream is None:
            raise ClusterError("realtime tables need a stream config")
        if self.table_type is TableType.OFFLINE and self.stream is not None:
            raise ClusterError("offline tables cannot have a stream config")
        if self.routing_strategy == "partition_aware" and self.partition is None:
            raise ClusterError(
                "partition_aware routing requires a partition config"
            )
        if self.partition is not None:
            spec = self.schema.field(self.partition.column)
            if spec.multi_value:
                raise ClusterError("partition column cannot be multi-value")
            # Segment builds must agree with the table's partitioning;
            # the caller's SegmentConfig may be shared, so copy it.
            self.segment_config = replace(
                self.segment_config, partition_column=self.partition.column,
                num_partitions=self.partition.num_partitions)
        if self.upsert is not None:
            self._validate_upsert()

    def _validate_upsert(self) -> None:
        assert self.upsert is not None
        if self.table_type is not TableType.REALTIME:
            raise ClusterError("upsert/dedup requires a realtime table")
        columns = list(self.upsert.key_columns)
        if self.upsert.comparison_column is not None:
            columns.append(self.upsert.comparison_column)
        for column in columns:
            spec = self.schema.field(column)
            if spec.multi_value:
                raise ClusterError(
                    f"upsert column {column!r} cannot be multi-value"
                )
        # Valid-docId bitmaps address rows by docId, so the sealed
        # segment must preserve the mutable segment's insertion order:
        # no sort-on-seal, no star-tree pre-aggregation.
        if self.segment_config.sorted_column is not None:
            raise ClusterError(
                "upsert/dedup tables cannot use a sorted_column "
                "(seal would reorder docIds under the bitmaps)"
            )
        if self.segment_config.star_tree is not None:
            raise ClusterError(
                "upsert/dedup tables cannot use a star-tree index "
                "(pre-aggregation ignores valid-docId masks)"
            )
        if self.segment_config.timestamp_index:
            raise ClusterError(
                "upsert/dedup tables cannot use a timestamp index "
                "(rollups pre-aggregate rows the valid-docId mask hides)"
            )

    @property
    def name(self) -> str:
        """The physical table name, e.g. ``events_OFFLINE``."""
        return f"{self.logical_name}_{self.table_type.value}"

    @property
    def time_column(self) -> str | None:
        return self.schema.time_column

    # -- convenience constructors -------------------------------------------

    @classmethod
    def offline(cls, logical_name: str, schema: Schema,
                **kwargs: Any) -> "TableConfig":
        return cls(logical_name, TableType.OFFLINE, schema, **kwargs)

    @classmethod
    def realtime(cls, logical_name: str, schema: Schema,
                 stream: StreamConfig, **kwargs: Any) -> "TableConfig":
        return cls(logical_name, TableType.REALTIME, schema, stream=stream,
                   **kwargs)

    # -- serialization (for the source-controlled config story of §5.2) ------

    def to_dict(self) -> dict[str, Any]:
        return to_plain(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TableConfig":
        return from_plain(cls, payload)


# -- property-store readers ---------------------------------------------------
#
# The read side of the property-store layout lives here and nowhere
# else: ``tableconfigs/<table>`` holds a table's config,
# ``segments/<table>/<segment>`` the record the controller publishes for
# a pushed segment, ``realtime/<table>/<segment>`` the completion
# protocol's record for a consumed one. Every record read is one ZK
# round trip. A table's config is parsed once per change of its znode:
# :class:`_TableConfigs` keeps one parsed :class:`TableConfig` (or the
# fact that there is none) per table behind a data watch on
# ``tableconfigs/<table>``, so every reader — brokers on each query,
# servers, the controller — shares it. A shared config is read-only:
# a writer builds a new one (``dataclasses.replace``) and publishes it
# with ``set_property``, which fires the watch.


class _TableConfigs:
    """The parsed configs of one cluster's tables, dropped when their
    znode is created, changed or deleted and parsed again on the next
    read. It holds no reference to the cluster, so it lives exactly as
    long as the Helix manager it is keyed by."""

    def __init__(self) -> None:
        self._configs: dict[str, TableConfig | None] = {}
        self._watched: set[str] = set()

    def get(self, helix: "HelixManager", table: str) -> TableConfig | None:
        try:
            return self._configs[table]
        except KeyError:
            pass
        if table not in self._watched:
            self._watched.add(table)
            helix.zk.watch_data(helix.property_path(f"tableconfigs/{table}"),
                                self._on_change)
        payload = helix.get_property(f"tableconfigs/{table}")
        config = None if payload is None else TableConfig.from_dict(payload)
        self._configs[table] = config
        return config

    def _on_change(self, event: str, path: str) -> None:
        self._configs.pop(path.rsplit("/", 1)[-1], None)


_CONFIGS: "WeakKeyDictionary[HelixManager, _TableConfigs]" = (
    WeakKeyDictionary())


def table_exists(helix: "HelixManager", table: str) -> bool:
    """Whether a physical table is registered."""
    return find_table_config(helix, table) is not None


def find_table_config(helix: "HelixManager",
                      table: str) -> TableConfig | None:
    """The table's config, or None when there is no such table. The
    object is shared by every reader: never mutate it."""
    configs = _CONFIGS.get(helix)
    if configs is None:
        configs = _CONFIGS[helix] = _TableConfigs()
    return configs.get(helix, table)


def read_table_config(helix: "HelixManager", table: str) -> TableConfig:
    config = find_table_config(helix, table)
    if config is None:
        raise ClusterError(f"no such table: {table!r}")
    return config


def read_segment_record(helix: "HelixManager", table: str,
                        segment: str) -> dict[str, Any]:
    """A segment's published record, pushed or consumed; ``{}`` when the
    controller never published one (bare unit-test setups)."""
    return (helix.get_property(f"segments/{table}/{segment}")
            or helix.get_property(f"realtime/{table}/{segment}")
            or {})


def read_realtime_record(helix: "HelixManager", table: str,
                         segment: str) -> dict[str, Any] | None:
    """The completion protocol's record of one consumed segment
    (partition, offsets, status), or None before it is created."""
    return helix.get_property(f"realtime/{table}/{segment}")


def pushed_segment_records(helix: "HelixManager",
                           table: str) -> Iterator[dict[str, Any]]:
    """The record of every segment pushed to ``table``."""
    for segment in helix.list_properties(f"segments/{table}"):
        yield helix.get_property(f"segments/{table}/{segment}") or {}
