"""Per-segment logical and physical query planning (§3.3.4, Figs 5 & 7).

Query plans are generated *per segment* because index availability and
physical layout differ between segments. The planner:

1. validates the query against the segment's schema;
2. picks a plan kind — metadata-only (e.g. ``SELECT COUNT(*)`` or
   min/max without a filter, answered from segment metadata), star-tree
   (the query is served from pre-aggregated records, §4.3), or regular
   scan;
3. for regular plans, compiles every leaf predicate into an
   :class:`~repro.engine.predicates.IdMatch` and selects a physical
   operator per leaf by index availability;
4. orders AND children by estimated cost so selective, cheap operators
   (sorted ranges first) narrow the selection for the rest (§4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.common.types import DataType
from repro.engine.aggregates import Rollup, function_for, served_by_rollup
from repro.engine.operators import (
    AndFilter,
    FilterOperator,
    FilterPlan,
    InvertedFilter,
    MatchAllFilter,
    MatchNoneFilter,
    OrFilter,
    ScanFilter,
    SortedRangeFilter,
)
from repro.engine.predicates import compile_leaf
from repro.errors import ExecutionError, PlanningError
from repro.pql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    Not,
    Or,
    Predicate,
    Query,
    TimeBucket,
)
from repro.segment.segment import ImmutableSegment


class PlanKind(enum.Enum):
    METADATA = "METADATA"
    TIME_INDEX = "TIME_INDEX"
    STAR_TREE = "STAR_TREE"
    SCAN = "SCAN"


@dataclass
class SegmentPlan:
    """A physical plan for one (query, segment) pair."""

    kind: PlanKind
    segment: ImmutableSegment
    query: Query
    filter_plan: FilterPlan | None = None
    use_cost_ordering: bool = True
    notes: list[str] = field(default_factory=list)
    #: TIME_INDEX plans: the rollup to aggregate plus the normalized
    #: inclusive time bounds to slice it with (None = unbounded), and
    #: the query's bucket size (None when there is no GROUP BY).
    time_rollup: "object | None" = None
    time_low: int | None = None
    time_high: int | None = None
    time_bucket_size: int | None = None
    #: STAR_TREE plans: the filter compiled once, by
    #: ``star_tree_constraints``, into allowed dictionary ids per tree
    #: dimension.
    star_constraints: "list | None" = None

    def describe(self) -> str:
        parts = [self.kind.value]
        if self.filter_plan is not None:
            parts.append(self.filter_plan.describe())
        parts.extend(self.notes)
        return " | ".join(parts)


def plan_segment(segment: ImmutableSegment, query: Query,
                 use_cost_ordering: bool = True,
                 allow_star_tree: bool = True,
                 allow_metadata_only: bool = True,
                 allow_time_index: bool = True) -> SegmentPlan:
    """Build the physical plan for ``query`` on ``segment``.

    ``use_cost_ordering`` and ``allow_star_tree`` exist for the ablation
    benchmarks; production behaviour is both enabled.
    ``allow_metadata_only=False`` forces a scan plan even for
    metadata-answerable queries — required when the caller will mask the
    scan with a partial valid-docId selection (upsert tables), since
    metadata answers describe *every* stored doc.
    ``allow_time_index=False`` likewise disables the timestamp-index
    rollup path (rollups pre-aggregate every stored doc).
    """
    validate_columns(segment, query)

    if allow_metadata_only and _is_metadata_only(segment, query):
        return SegmentPlan(PlanKind.METADATA, segment, query,
                           notes=["answered from segment metadata"])

    if allow_time_index and segment.time_index is not None:
        plan = _plan_time_index(segment, query)
        if plan is not None:
            return plan

    if allow_star_tree and segment.star_tree is not None:
        from repro.startree.query import star_tree_constraints

        constraints = star_tree_constraints(segment, query)
        if constraints is not None:
            return SegmentPlan(PlanKind.STAR_TREE, segment, query,
                               notes=["star-tree pre-aggregation"],
                               star_constraints=constraints)

    root = None
    if query.where is not None:
        root = _compile_filter(segment, query.where, use_cost_ordering)
    filter_plan = FilterPlan(root, segment.num_docs)
    return SegmentPlan(PlanKind.SCAN, segment, query, filter_plan,
                       use_cost_ordering)


def validate_columns(segment: ImmutableSegment, query: Query) -> None:
    """What every plan kind — and the scalar oracle — refuses before
    touching a row: a column the segment lacks, an aggregate over a
    multi-value column, a numeric aggregate over a STRING column."""
    missing = [
        column for column in query.referenced_columns()
        if not segment.has_column(column)
    ]
    if missing:
        raise PlanningError(
            f"segment {segment.name!r} is missing columns {missing} "
            f"referenced by the query"
        )
    for aggregation in query.aggregations:
        func = function_for(aggregation)
        if not func.needs_values:
            continue
        column = segment.column(aggregation.column)
        if column.is_multi_value:
            raise ExecutionError(
                f"cannot aggregate over multi-value column "
                f"{aggregation.column!r}"
            )
        if func.numeric_only and column.dictionary.dtype is DataType.STRING:
            raise PlanningError(
                f"{aggregation} needs a numeric column; "
                f"{aggregation.column!r} is STRING"
            )


def _is_metadata_only(segment: ImmutableSegment, query: Query) -> bool:
    if query.where is not None or query.group_by or not query.is_aggregation:
        return False
    if query.projections:
        return False
    return all(
        served_by_rollup(aggregation,
                         metadata_rollup(segment, aggregation.column))
        for aggregation in query.aggregations
    )


def metadata_rollup(segment: ImmutableSegment, name: str) -> Rollup:
    """Column ``name`` as segment metadata keeps it: the whole segment
    as one pre-aggregated row of its doc count and the column's min /
    max (which describe docs only on a single-value column)."""
    counts = np.asarray([segment.num_docs])
    if name == "*" or segment.column(name).is_multi_value:
        return Rollup(counts)
    # Object arrays: metadata values turn into floats exactly as the
    # scan path's column values do.
    meta = segment.metadata.column(name)
    return Rollup(counts,
                  mins=np.asarray([meta.min_value], dtype=object),
                  maxs=np.asarray([meta.max_value], dtype=object))


# -- timestamp-index plans ---------------------------------------------------


def _plan_time_index(segment: ImmutableSegment,
                     query: Query) -> SegmentPlan | None:
    """A TIME_INDEX plan when a rollup can answer the query exactly.

    Qualifying shape: an aggregation-only query whose group-by is empty
    or a single entry on the time column (raw, or ``timebucket(...)``),
    whose aggregations are all rollup-covered, and whose predicate — if
    any — is a pure time-range conjunction whose bounds, after
    normalizing against the segment's own [min_time, max_time], land on
    bucket edges of some configured granularity. Normalizing first is
    what lets a hybrid-split boundary predicate (``day <= boundary``)
    still qualify on segments wholly inside the boundary.
    """
    index = segment.time_index
    assert index is not None
    time_column = index.time_column

    if not query.is_aggregation or query.projections:
        return None
    bucket_size: int | None = None
    if query.group_by:
        if len(query.group_by) != 1:
            return None
        entry = query.group_by[0]
        if isinstance(entry, TimeBucket):
            if entry.column != time_column:
                return None
            bucket_size = entry.size
        elif entry == time_column:
            bucket_size = 1
        else:
            return None

    low: int | None = None
    high: int | None = None
    if query.where is not None:
        bounds = _exact_time_range(query.where, time_column)
        if bounds is None:
            return None
        low, high = bounds
        time_range = segment.time_range()
        if time_range is not None:
            min_time, max_time = time_range
            if low is not None and low <= min_time:
                low = None  # bound does not cut into this segment
            if high is not None and high >= max_time:
                high = None

    rollup = index.rollup_for(bucket_size, low, high)
    if rollup is None or not all(
        served_by_rollup(aggregation,
                         bucket_rollup(rollup, aggregation.column))
        for aggregation in query.aggregations
    ):
        return None
    return SegmentPlan(
        PlanKind.TIME_INDEX, segment, query,
        notes=[f"timestamp-index rollup g={rollup.granularity}"],
        time_rollup=rollup, time_low=low, time_high=high,
        time_bucket_size=bucket_size,
    )


def bucket_rollup(rollup, name: str) -> Rollup:
    """Column ``name`` as a timestamp-index rollup keeps it, one row
    per time bucket (bucket counts only, for a column it did not
    pre-aggregate)."""
    return Rollup(rollup.counts, rollup.sums.get(name),
                  rollup.mins.get(name), rollup.maxs.get(name))


def _exact_time_range(
    predicate: Predicate, time_column: str,
) -> tuple[int | None, int | None] | None:
    """The inclusive [low, high] (None = unbounded) that ``predicate``
    is *exactly* — a conjunction of integer range comparisons on the
    time column only — or None when anything else (other columns,
    OR/NOT, NEQ/IN, non-integer bounds) needs the raw rows."""
    if isinstance(predicate, And):
        low, high = None, None
        for child in predicate.children:
            bounds = _exact_time_range(child, time_column)
            if bounds is None:
                return None
            child_low, child_high = bounds
            if child_low is not None:
                low = child_low if low is None else max(low, child_low)
            if child_high is not None:
                high = child_high if high is None else min(high, child_high)
        return low, high
    if getattr(predicate, "column", None) != time_column:
        return None
    if isinstance(predicate, Between):
        if type(predicate.low) is int and type(predicate.high) is int:
            return predicate.low, predicate.high
    elif isinstance(predicate, Comparison) and type(predicate.value) is int:
        value = predicate.value
        if predicate.op is CompareOp.EQ:
            return value, value
        if predicate.op is CompareOp.GT:
            return value + 1, None
        if predicate.op is CompareOp.GTE:
            return value, None
        if predicate.op is CompareOp.LT:
            return None, value - 1
        if predicate.op is CompareOp.LTE:
            return None, value
    return None


# -- filter compilation -------------------------------------------------------


def _compile_filter(segment: ImmutableSegment, predicate: Predicate,
                    use_cost_ordering: bool) -> FilterOperator:
    if isinstance(predicate, And):
        children = [
            _compile_filter(segment, child, use_cost_ordering)
            for child in predicate.children
        ]
        children = _simplify_and(children, segment.num_docs)
        if len(children) == 1:
            return children[0]
        if use_cost_ordering:
            children.sort(key=lambda op: op.cost())
        return AndFilter(children)
    if isinstance(predicate, Or):
        children = [
            _compile_filter(segment, child, use_cost_ordering)
            for child in predicate.children
        ]
        children = _simplify_or(children, segment.num_docs)
        if len(children) == 1:
            return children[0]
        return OrFilter(children)
    if isinstance(predicate, Not):
        # The rewriter eliminates NOT; raw (un-optimized) queries can
        # still carry it, so normalize on the fly.
        from repro.pql.rewriter import normalize_predicate

        return _compile_filter(segment, normalize_predicate(predicate),
                               use_cost_ordering)
    return _compile_leaf_operator(segment, predicate)


def _compile_leaf_operator(segment: ImmutableSegment,
                           predicate: Predicate) -> FilterOperator:
    column_name = getattr(predicate, "column")
    column = segment.column(column_name)
    match = compile_leaf(predicate, column)
    if match.is_empty:
        return MatchNoneFilter()
    if match.is_all and not column.is_multi_value:
        # Predicate matches all values in this segment (§3.3.4).
        return MatchAllFilter(segment.num_docs)
    if column.is_sorted:
        return SortedRangeFilter(column, match)
    if column.inverted is not None:
        return InvertedFilter(column, match)
    return ScanFilter(column, match)


def _simplify_and(children: list[FilterOperator],
                  num_docs: int) -> list[FilterOperator]:
    if any(isinstance(c, MatchNoneFilter) for c in children):
        return [MatchNoneFilter()]
    remaining = [c for c in children if not isinstance(c, MatchAllFilter)]
    return remaining or [MatchAllFilter(num_docs)]


def _simplify_or(children: list[FilterOperator],
                 num_docs: int) -> list[FilterOperator]:
    if any(isinstance(c, MatchAllFilter) for c in children):
        return [MatchAllFilter(num_docs)]
    remaining = [c for c in children if not isinstance(c, MatchNoneFilter)]
    return remaining or [MatchNoneFilter()]
