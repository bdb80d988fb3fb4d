"""Result containers for per-segment, per-server and broker results.

Results flow bottom-up (§3.3.3): segments produce partial results with
mergeable aggregation states, servers combine their segments' partials,
and the broker merges server responses into the final
:class:`ResultTable` returned to the client. Errors and timeouts mark
the response *partial* rather than failing it (step 7).

Grouped and selection partials are *column blocks* — one numpy array
per group-by expression / projected column, one state column per
aggregation — from the executor's output, through both merge levels
and the wire, to the broker's finalize; rows are built once, for the
``LIMIT`` window of the :class:`ResultTable`. The row-wise
constructors and views here (``from_groups`` / ``groups``,
``from_rows`` / ``rows``) are for the scalar oracle, tests and
scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.aggregates import function_for
from repro.pql.ast_nodes import Aggregation, Query


@dataclass
class ExecutionStats:
    """Counters for one query execution (any granularity)."""

    num_segments_queried: int = 0
    num_segments_processed: int = 0
    num_segments_matched: int = 0
    #: Segments a server skipped pre-execution via zone maps, bloom
    #: filters or partition metadata (they count as queried, not
    #: processed).
    num_segments_pruned_by_server: int = 0
    num_docs_scanned: int = 0
    num_entries_scanned_in_filter: int = 0
    num_entries_scanned_post_filter: int = 0
    total_docs: int = 0
    startree_used: bool = False
    startree_docs_scanned: int = 0
    raw_docs_matched: int = 0
    metadata_only: bool = False
    #: True when a timestamp-index rollup answered the query for at
    #: least one segment (no raw rows were scanned there).
    time_index_used: bool = False
    time_index_buckets_scanned: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        # "Every segment was answered from metadata" is an AND, whose
        # identity is True — but fresh stats say False, so stats that
        # have counted no segment yet take the first answer as it is.
        self.metadata_only = other.metadata_only and (
            self.metadata_only or not self.num_segments_queried
        )
        self.num_segments_queried += other.num_segments_queried
        self.num_segments_processed += other.num_segments_processed
        self.num_segments_matched += other.num_segments_matched
        self.num_segments_pruned_by_server += (
            other.num_segments_pruned_by_server
        )
        self.num_docs_scanned += other.num_docs_scanned
        self.num_entries_scanned_in_filter += (
            other.num_entries_scanned_in_filter
        )
        self.num_entries_scanned_post_filter += (
            other.num_entries_scanned_post_filter
        )
        self.total_docs += other.total_docs
        self.startree_used = self.startree_used or other.startree_used
        self.startree_docs_scanned += other.startree_docs_scanned
        self.raw_docs_matched += other.raw_docs_matched
        self.time_index_used = (self.time_index_used
                                or other.time_index_used)
        self.time_index_buckets_scanned += other.time_index_buckets_scanned


@dataclass
class AggregationPartial:
    """Partial states, one per aggregation in the select list."""

    states: list[Any]

    @classmethod
    def empty(cls, aggregations: tuple[Aggregation, ...]) -> "AggregationPartial":
        return cls([function_for(a).init_empty() for a in aggregations])

    @classmethod
    def merged(cls, partials: list["AggregationPartial"],
               aggregations: tuple[Aggregation, ...]) -> "AggregationPartial":
        """All of ``partials`` merged: one ``merge_many`` per
        aggregation."""
        return cls([
            function_for(a).merge_many([p.states[i] for p in partials])
            for i, a in enumerate(aggregations)
        ])


def block_column(values: list[Any]) -> np.ndarray:
    """``values`` as one 1-D column of a block: a numeric array for
    numbers, an object array for strings and multi-value cells (tuples
    — ``np.asarray`` would make equal-length ones a 2-D array)."""
    if set(map(type, values)) in ({int}, {float}, {bool}):
        return np.asarray(values)
    return np.fromiter(values, dtype=object, count=len(values))


@dataclass
class GroupByPartial:
    """Per-group partial states as a column block: ``keys[j][g]`` is
    group ``g``'s value of group-by expression ``j`` and ``states[i]``
    the state column of aggregation ``i`` (its form is the aggregate
    function's, see :mod:`repro.engine.aggregates`). No groups: no key
    columns, or empty ones.

    Groups are listed in ascending key order (lexicographic over the
    key columns): a segment numbers them on sorted dictionary ids or
    sorted bucket values, a merge on order-preserving codes. The
    broker's TOP-n relies on it to break ties by key."""

    keys: list[np.ndarray] = field(default_factory=list)
    states: list[Any] = field(default_factory=list)

    @property
    def num_groups(self) -> int:
        return len(self.keys[0]) if self.keys else 0

    @classmethod
    def from_groups(cls, groups: dict[tuple, list[Any]],
                    aggregations: tuple[Aggregation, ...]):
        """Build from ``{group key tuple: [state per aggregation]}``, in
        any order; the block lists the groups sorted by key."""
        ordered = sorted(groups)
        return cls(
            [block_column(list(column)) for column in zip(*ordered)],
            [function_for(a).state_column(list(states))
             for a, states in zip(aggregations,
                                  zip(*map(groups.__getitem__, ordered)))],
        )

    def groups(self, aggregations: tuple[Aggregation, ...]):
        """The row-wise view :meth:`from_groups` is built from."""
        states = zip(*(function_for(a).state_rows(column)
                       for a, column in zip(aggregations, self.states)))
        return dict(zip(zip(*(k.tolist() for k in self.keys)),
                        map(list, states)))


@dataclass
class SelectionPartial:
    """Projected rows of a selection query as a column block:
    ``data[j][r]`` is row ``r``'s cell of ``columns[j]``.

    ``columns`` are the projected columns followed by any ORDER BY
    column the projection lacks (the merges order on them; the broker
    drops them at finalize). Bounded to ``limit + offset`` rows per
    partial, already in ORDER BY order. No rows: no, or empty, columns.
    """

    columns: tuple[str, ...]
    data: list[np.ndarray] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return len(self.data[0]) if self.data else 0

    @classmethod
    def from_rows(cls, columns: tuple[str, ...], rows: list[tuple]):
        return cls(columns, [block_column(list(c)) for c in zip(*rows)])

    def rows(self) -> list[tuple]:
        return list(zip(*(column.tolist() for column in self.data)))


def selection_columns(query: Query,
                      all_columns: tuple[str, ...]) -> tuple[str, ...]:
    """The columns of ``query``'s selection partials on a segment with
    ``all_columns``: the projection, then the ORDER BY columns it
    lacks."""
    projected = (all_columns if query.select_star
                 else tuple(item.name for item in query.projections))
    return projected + tuple(dict.fromkeys(
        ordering.expression.name for ordering in query.order_by
        if ordering.expression.name not in projected
    ))


def integer_codes(values: np.ndarray, descending: bool = False):
    """An integer or boolean column as order-preserving int64 codes in
    ``[0, span)``: ``value - min``, or ``max - value`` descending;
    returns (codes, min as int64, span). The arithmetic wraps modulo
    2**64, which is exact whenever ``span < 2**63`` — the only case
    :func:`pack_codes` packs; ``(codes + min).astype(values.dtype)``
    gives the ascending values back."""
    low, high = values.min(), values.max()
    span = int(high) - int(low) + 1
    low = low.astype(np.int64)
    if descending:
        return np.subtract(high.astype(np.int64), values,
                           dtype=np.int64), low, span
    return np.subtract(values, low, dtype=np.int64), low, span


def pack_codes(spans: list[int], columns: list[np.ndarray]):
    """Pack per-column codes (column ``j``'s in ``[0, spans[j])``) into
    one int64 per row, mixed-radix with the first column most
    significant — one multiply-add per column after the first — so
    packed order is the lexicographic order of the code tuples. None
    when the span product reaches 2**63, where no int64 holds it."""
    if math.prod(spans) >= 2 ** 63:  # python ints: no silent overflow
        return None
    # A copy when there is a column to add into it: ours to update.
    packed = columns[0].astype(np.int64, copy=len(columns) > 1)
    for codes, span in zip(columns[1:], spans[1:]):
        packed *= span
        packed += codes
    return packed


#: ``order_rows`` partitions out a ``limit``'s candidates before it
#: sorts once a block has this many rows; below it one stable sort of
#: the whole block is the cheaper pass. A TOP 10 or TOP 100 over 640
#: float sums costs 10-12 us either way; over 1 280 sums, 47-51 us
#: sorted whole and 12-13 us partitioned first.
PARTITION_MIN_ROWS = 1024


def order_rows(keys: list[tuple[np.ndarray, bool]],
               limit: int | None = None) -> np.ndarray:
    """The stable order of a block's rows under ``(column, descending)``
    sort keys, most significant first — or, given ``limit``, the first
    ``limit`` rows of that order.

    Integer and boolean keys — dictionary ids at the segment, values
    above it — code through :func:`integer_codes`, pack through
    :func:`pack_codes` and take one stable ``argsort``; a lone numeric
    key needs no packing and is sorted on directly. A float or string
    key among several, or spans whose product reaches 2**63, take one
    stable ``lexsort`` instead. Descending negates a float key,
    complements an integer one (no overflow) or complements a string's
    rank among the distinct values (strings, multi-value cells); NaN
    sorts last in either direction, as numpy has it. Every way gives
    the same permutation wherever it applies.

    A ``limit`` below the row count of a block of at least
    ``PARTITION_MIN_ROWS`` rows, on a numeric first key, sorts only
    the rows whose first key is at most the ``limit``-th smallest
    (``np.partition``), kept in input order: the first ``limit`` rows
    of the order are all among them, and a stable sort orders them as
    it would inside the whole block. A TOP-n over thousands of groups
    then sorts a few dozen."""
    first, descending = keys[0]
    if (limit is not None and limit < len(first)
            and len(first) >= PARTITION_MIN_ROWS
            and first.dtype.kind in "biuf"):
        first = _numeric_sort_key(first, descending)
        cut = np.partition(first, limit - 1)[limit - 1]
        rows = np.flatnonzero(~(first > cut))  # NaN > cut is False: kept
        return rows[order_rows([(values[rows], descending)
                                for values, descending in keys])[:limit]]
    if len(keys) == 1 and first.dtype.kind in "biuf":
        return np.argsort(_numeric_sort_key(first, descending),
                          kind="stable")[:limit]
    if len(first) and all(v.dtype.kind in "biu" for v, __ in keys):
        coded = [integer_codes(values, descending)
                 for values, descending in keys]
        packed = pack_codes([span for __, __, span in coded],
                            [codes for codes, __, __ in coded])
        if packed is not None:
            return np.argsort(packed, kind="stable")[:limit]
    columns = []
    for values, descending in keys:
        if values.dtype.kind not in "biuf":
            values = np.unique(values, return_inverse=True)[1]
        columns.append(_numeric_sort_key(values, descending))
    return np.lexsort(columns[::-1])[:limit]


def _numeric_sort_key(values: np.ndarray, descending: bool) -> np.ndarray:
    """A numeric column whose ascending order is ``values``' order in
    the given direction: negated floats, complemented integers."""
    if not descending:
        return values
    return -values if values.dtype.kind == "f" else ~values


@dataclass
class SegmentResult:
    """Result of executing a query on one segment."""

    aggregation: AggregationPartial | None = None
    group_by: GroupByPartial | None = None
    selection: SelectionPartial | None = None
    stats: ExecutionStats = field(default_factory=ExecutionStats)


@dataclass
class ServerResult:
    """Combined result of one server over its assigned segments."""

    server: str
    aggregation: AggregationPartial | None = None
    group_by: GroupByPartial | None = None
    selection: SelectionPartial | None = None
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    error: str | None = None
    #: Measured execution time plus any injected simulated latency;
    #: what the broker's deadline accounting charges this sub-request.
    elapsed_ms: float = 0.0


@dataclass
class ResultTable:
    """The tabular query result returned to clients."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column_values(self, name: str) -> list[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __repr__(self) -> str:
        preview = "; ".join(str(r) for r in self.rows[:3])
        more = f" (+{len(self.rows) - 3} rows)" if len(self.rows) > 3 else ""
        return f"ResultTable({self.columns}, {preview}{more})"


@dataclass
class BrokerResponse:
    """What a Pinot broker sends back to the client (§3.3.3 step 8)."""

    table: ResultTable
    stats: ExecutionStats
    is_partial: bool = False
    exceptions: list[str] = field(default_factory=list)
    time_used_ms: float = 0.0
    num_servers_queried: int = 0
    num_servers_responded: int = 0
    #: Segments the broker pruned by time-range metadata before
    #: scattering (they never reached a server).
    num_segments_pruned_by_broker: int = 0
    #: Sub-request retries the broker issued on other replicas.
    num_retries: int = 0
    #: Segments the broker moved to a different replica after their
    #: first-choice server failed.
    num_segments_failed_over: int = 0
    #: Errors that occurred but were recovered by replica failover —
    #: they do not mark the response partial.
    recovered_exceptions: list[str] = field(default_factory=list)
    #: This query's broker stage timings (route/scatter/gather/merge,
    #: plus "cache" when the result cache was consulted).
    stage_times_ms: dict[str, float] = field(default_factory=dict)
    #: True when this response was served from the broker result cache.
    cache_hit: bool = False
    #: The query's span tree (``repro.obs``), present when the query
    #: was traced (sampled, or forced via ``OPTION(trace=true)``).
    trace: dict | None = None
    #: Smart-approximation rewrites the broker applied at plan time,
    #: as ``"old -> new"`` strings (e.g. ``"distinctcount(memberId) ->
    #: distinctcounthll(memberId)"``). Empty when no rewrite happened.
    rewrites: tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        """Alias for :attr:`is_partial` (graceful-degradation flag)."""
        return self.is_partial

    @property
    def rows(self) -> list[tuple]:
        return self.table.rows
