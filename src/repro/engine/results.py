"""Result containers for per-segment, per-server and broker results.

Results flow bottom-up (§3.3.3): segments produce partial results with
mergeable aggregation states, servers combine their segments' partials,
and the broker merges server responses into the final
:class:`ResultTable` returned to the client. Errors and timeouts mark
the response *partial* rather than failing it (step 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.aggregates import function_for
from repro.pql.ast_nodes import Aggregation, ColumnRef, Query


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

    def merge(self, other: "AggregationPartial",
              aggregations: tuple[Aggregation, ...]) -> None:
        for i, aggregation in enumerate(aggregations):
            func = function_for(aggregation)
            self.states[i] = func.merge(self.states[i], other.states[i])


@dataclass
class GroupByPartial:
    """Per-group partial states keyed by the group-by value tuple."""

    groups: dict[tuple, list[Any]] = field(default_factory=dict)

    @classmethod
    def from_columns(cls, keys: list[tuple],
                     per_agg_states: list[list[Any]]) -> "GroupByPartial":
        """Build from the column-wise form every grouped producer
        computes: ``keys[g]`` is group ``g``'s key and
        ``per_agg_states[i][g]`` the state of aggregation ``i`` for it."""
        return cls({
            key: [states[g] for states in per_agg_states]
            for g, key in enumerate(keys)
        })

    def merge(self, other: "GroupByPartial",
              aggregations: tuple[Aggregation, ...]) -> None:
        funcs = [function_for(a) for a in aggregations]
        for key, states in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = list(states)
            else:
                for i, func in enumerate(funcs):
                    mine[i] = func.merge(mine[i], states[i])


@dataclass
class SelectionPartial:
    """Projected rows for selection (non-aggregation) queries.

    Rows are kept bounded to ``limit + offset`` per partial; ordering
    happens at merge time when the query has ORDER BY.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)


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


def row_sort_key(query: Query, columns: tuple[str, ...]):
    """Key function for ORDER BY on selection rows, where ``columns``
    names the row tuple's fields in order."""
    if not query.order_by:
        return None
    indices: list[tuple[int, bool]] = []
    for ordering in query.order_by:
        assert isinstance(ordering.expression, ColumnRef)
        indices.append(
            (columns.index(ordering.expression.name), ordering.descending)
        )

    def key(row: tuple):
        return tuple(
            _Reversed(row[i]) if desc else row[i] for i, desc in indices
        )

    return key


class _Reversed:
    """Wrapper inverting comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def group_sort_key(query: Query):
    """Key for ordering (key, finalized_values) group entries.

    With an explicit ORDER BY the listed expressions are honored; PQL's
    default for TOP-n group-by is descending by the first aggregation.
    """
    aggregations = query.aggregations
    group_columns = list(query.group_by)

    if not query.order_by:
        def default_key(entry):
            group_key, values = entry
            # Group key as tiebreaker: deterministic TOP-n truncation
            # even when aggregate values tie at the cut-off.
            return (_Reversed(values[0]), group_key)

        return default_key

    specs: list[tuple[str, int, bool]] = []
    for ordering in query.order_by:
        expr = ordering.expression
        if isinstance(expr, Aggregation):
            specs.append(("agg", aggregations.index(expr),
                          ordering.descending))
        else:
            specs.append(("key", group_columns.index(expr.name),
                          ordering.descending))

    def key(entry):
        group_key, values = entry
        parts = []
        for kind, index, descending in specs:
            value = values[index] if kind == "agg" else group_key[index]
            parts.append(_Reversed(value) if descending else value)
        parts.append(group_key)  # deterministic tiebreak
        return tuple(parts)

    return key
