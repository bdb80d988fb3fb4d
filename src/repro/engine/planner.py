"""Per-segment logical and physical query planning (§3.3.4, Figs 5 & 7).

Query plans are generated *per segment* because index availability and
physical layout differ between segments. Most of a plan does not depend
on the segment, though, so planning has two halves:
:func:`compile_query` does the segment-independent half once per server
sub-request (columns checked against a schema, literals coerced,
plan-kind shapes, the prune check) and :func:`plan_segment` binds that
compiled form to each segment. Per segment the planner:

1. validates the query against the segment's columns;
2. picks a plan kind — metadata-only (e.g. ``SELECT COUNT(*)`` or
   min/max without a filter, answered from segment metadata), star-tree
   (the query is served from pre-aggregated records, §4.3), or regular
   scan;
3. for regular plans, binds every compiled leaf to an
   :class:`~repro.engine.predicates.IdMatch` (dictionary look-ups only)
   and selects a physical operator per leaf by index availability;
4. orders AND children by estimated cost so selective, cheap operators
   (sorted ranges first) narrow the selection for the rest (§4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.cache.pruner import CompiledPruner, prune_check
from repro.common.schema import Schema
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
from repro.engine.predicates import CompiledLeaf, compile_predicate_leaf
from repro.errors import ExecutionError, PlanningError
from repro.pql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    In,
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
    #: STAR_TREE plans: the filter bound once, by
    #: ``star_tree_constraints``, into allowed dictionary ids per tree
    #: dimension.
    star_constraints: "list | None" = None

    def describe(self) -> str:
        parts = [self.kind.value]
        if self.filter_plan is not None:
            parts.append(self.filter_plan.describe())
        parts.extend(self.notes)
        return " | ".join(parts)


class CompiledQuery(NamedTuple):
    """The half of a plan that does not depend on the segment, made by
    :func:`compile_query` for one schema and bound to each segment of
    that schema by :func:`plan_segment`."""

    query: Query
    #: The schema this form was compiled against; a segment with another
    #: one (schema evolution) is compiled again.
    schema: Schema
    #: The query's server-side prune check (none under ``skipPrune``).
    pruner: CompiledPruner
    #: Columns the query reads that the schema does not list, in
    #: ``referenced_columns`` order: a segment lacking them is refused,
    #: one that has them anyway (a virtual column) is compiled again
    #: for its own columns.
    unlisted: tuple[str, ...]
    #: ``(aggregation, numeric_only)`` per aggregation over values,
    #: checked against each segment's own column.
    value_aggregations: tuple
    #: WHERE with NOT pushed down and every leaf compiled.
    where: "CompiledLeaf | _Junction | None"
    #: No WHERE, GROUP BY or projection: segment metadata may answer.
    metadata_shape: bool
    #: The top-level AND leaves when every one is an EQ / IN / range a
    #: star-tree can descend by; None when no star-tree can answer.
    star_leaves: tuple[CompiledLeaf, ...] | None
    #: ``(bucket_size, low, high)`` when a timestamp index on the
    #: schema's time column (the only column a segment builds one on)
    #: may answer; None when none can.
    time_shape: tuple | None


class _Junction(NamedTuple):
    """A compiled AND (``conjunctive``) or OR."""

    conjunctive: bool
    children: tuple


def compile_query(query: Query, schema: Schema) -> CompiledQuery:
    """Compile what every segment of ``schema`` shares. Never raises: a
    refusal waits for :func:`plan_segment`, so a query whose segments
    are all pruned fails no more than when each segment was planned
    from scratch."""
    where = query.where
    aggregations = query.aggregations
    star_leaves = () if aggregations else None
    compiled_where = None
    if where is not None:
        compiled_where = _compile_predicate(where, schema)
        top = where.children if isinstance(where, And) else (where,)
        if star_leaves is None or not all(map(_navigable, top)):
            star_leaves = None
        else:  # plain leaves under one AND compile one to one
            star_leaves = (compiled_where.children
                           if isinstance(compiled_where, _Junction)
                           else (compiled_where,))
    value_aggregations = []
    for aggregation in aggregations:
        func = function_for(aggregation)
        if func.needs_values:
            value_aggregations.append((aggregation, func.numeric_only))
    time_column = schema.time_column
    return CompiledQuery(
        query, schema, prune_check(query, schema),
        unlisted=tuple([column for column in query.referenced_columns()
                        if column not in schema]),
        value_aggregations=tuple(value_aggregations),
        where=compiled_where,
        metadata_shape=(where is None and not query.group_by
                        and bool(aggregations) and not query.projections),
        star_leaves=star_leaves,
        time_shape=(None if time_column is None
                    else _time_shape(query, time_column)),
    )


def plan_segment(segment: ImmutableSegment, query: Query | CompiledQuery,
                 use_cost_ordering: bool = True,
                 allow_star_tree: bool = True,
                 allow_metadata_only: bool = True,
                 allow_time_index: bool = True) -> SegmentPlan:
    """Build the physical plan for ``query`` on ``segment``: bind a
    :class:`CompiledQuery` to it, compiling a bare :class:`Query` first.

    ``use_cost_ordering`` and ``allow_star_tree`` exist for the ablation
    benchmarks; production behaviour is both enabled.
    ``allow_metadata_only=False`` forces a scan plan even for
    metadata-answerable queries — required when the caller will mask the
    scan with a partial valid-docId selection (upsert tables), since
    metadata answers describe *every* stored doc.
    ``allow_time_index=False`` likewise disables the timestamp-index
    rollup path (rollups pre-aggregate every stored doc).
    """
    compiled = _validated(segment, query)
    query = compiled.query

    if allow_metadata_only and compiled.metadata_shape and all(
        served_by_rollup(aggregation,
                         metadata_rollup(segment, aggregation.column))
        for aggregation in query.aggregations
    ):
        return SegmentPlan(PlanKind.METADATA, segment, query,
                           notes=["answered from segment metadata"])

    if (allow_time_index and segment.time_index is not None
            and compiled.time_shape is not None):
        plan = _plan_time_index(segment, query, compiled.time_shape)
        if plan is not None:
            return plan

    if (allow_star_tree and segment.star_tree is not None
            and compiled.star_leaves is not None):
        from repro.startree.query import star_tree_constraints

        constraints = star_tree_constraints(segment, query,
                                            compiled.star_leaves)
        if constraints is not None:
            return SegmentPlan(PlanKind.STAR_TREE, segment, query,
                               notes=["star-tree pre-aggregation"],
                               star_constraints=constraints)

    root = None
    if compiled.where is not None:
        root = _bind_filter(segment, compiled.where, use_cost_ordering)
    filter_plan = FilterPlan(root, segment.num_docs)
    return SegmentPlan(PlanKind.SCAN, segment, query, filter_plan,
                       use_cost_ordering)


def validate_columns(segment: ImmutableSegment, query: Query) -> None:
    """What every plan kind — and the scalar oracle — refuses before
    touching a row: a column the segment lacks, an aggregate over a
    multi-value column, a numeric aggregate over a STRING column."""
    _validated(segment, query)


def _validated(segment: ImmutableSegment,
               query: Query | CompiledQuery) -> CompiledQuery:
    """``query`` compiled for ``segment``'s schema, once the segment is
    known to have every column it reads in a form it can aggregate.

    Coercion reads only column types, which a segment's columns take
    from its schema, so every segment of an equal schema shares one
    compiled form; a segment with another schema is compiled again.
    A segment has every column its schema lists (the builder and the
    reader make them all), so only a column the schema does not list
    can be missing — or be a virtual column the segment carries anyway.
    """
    schema = segment.schema
    if not isinstance(query, CompiledQuery):
        query = compile_query(query, schema)
    elif schema is not query.schema and schema != query.schema:
        query = compile_query(query.query, schema)
    if query.unlisted:
        missing = [column for column in query.unlisted
                   if not segment.has_column(column)]
        if missing:
            raise PlanningError(
                f"segment {segment.name!r} is missing columns {missing} "
                f"referenced by the query"
            )
        query = compile_query(query.query, Schema(
            schema.name,
            [segment.column(name).spec for name in segment.column_names]))
    for aggregation, numeric_only in query.value_aggregations:
        # The segment's own column: a virtual column's forward index
        # need not be what its spec says.
        column = segment.column(aggregation.column)
        if column.is_multi_value:
            raise ExecutionError(
                f"cannot aggregate over multi-value column "
                f"{aggregation.column!r}"
            )
        if numeric_only and column.dictionary.dtype is DataType.STRING:
            raise PlanningError(
                f"{aggregation} needs a numeric column; "
                f"{aggregation.column!r} is STRING"
            )
    return query


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


def _time_shape(query: Query, time_column: str) -> tuple | None:
    """What of a TIME_INDEX plan the query alone decides for one time
    column: ``(bucket_size, low, high)``, or None when no rollup can
    answer it.

    Qualifying shape: an aggregation-only query whose group-by is empty
    or a single entry on the time column (raw, or ``timebucket(...)``),
    and whose predicate — if any — is a pure time-range conjunction.
    """
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
    if query.where is None:
        return bucket_size, None, None
    bounds = _exact_time_range(query.where, time_column)
    return None if bounds is None else (bucket_size, *bounds)


def _plan_time_index(segment: ImmutableSegment, query: Query,
                     shape: tuple) -> SegmentPlan | None:
    """A TIME_INDEX plan when a rollup can answer the query exactly:
    every aggregation is rollup-covered, and the ``shape``'s bounds,
    after normalizing against the segment's own [min_time, max_time],
    land on bucket edges of some configured granularity. Normalizing
    first is what lets a hybrid-split boundary predicate (``day <=
    boundary``) still qualify on segments wholly inside the boundary.
    """
    index = segment.time_index
    assert index is not None and index.time_column == segment.schema.time_column
    bucket_size, low, high = shape
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


# -- filter compilation and binding -------------------------------------------


def _compile_predicate(predicate: Predicate,
                       schema: Schema) -> "CompiledLeaf | _Junction":
    if isinstance(predicate, (And, Or)):
        return _Junction(isinstance(predicate, And), tuple([
            _compile_predicate(child, schema)
            for child in predicate.children]))
    if isinstance(predicate, Not):
        # The rewriter eliminates NOT; raw (un-optimized) queries can
        # still carry it, so normalize on the fly.
        from repro.pql.rewriter import normalize_predicate

        return _compile_predicate(normalize_predicate(predicate), schema)
    column = getattr(predicate, "column")
    # No segment binds a leaf on a column the schema lacks: it is
    # refused as missing first, or compiled again for its own columns.
    dtype = (schema.field(column).dtype if column in schema
             else DataType.STRING)
    return compile_predicate_leaf(predicate, dtype)


def _navigable(predicate: Predicate) -> bool:
    """EQ / range / IN / BETWEEN — what a star-tree descends by; the
    negated forms (and LIKE, OR, NOT) need the raw rows."""
    if isinstance(predicate, Comparison):
        return predicate.op is not CompareOp.NEQ
    if isinstance(predicate, In):
        return not predicate.negated
    return isinstance(predicate, Between)


def _bind_filter(segment: ImmutableSegment, node: "CompiledLeaf | _Junction",
                 use_cost_ordering: bool) -> FilterOperator:
    """One segment's filter operator for a compiled predicate. Every
    leaf is bound even when a sibling already decides the junction, so
    a leaf that cannot be evaluated fails the query on every segment."""
    if isinstance(node, CompiledLeaf):
        return _leaf_operator(segment, node)
    children = []
    matches_none = matches_all = False
    for child in node.children:
        op = (_leaf_operator(segment, child)
              if isinstance(child, CompiledLeaf)
              else _bind_filter(segment, child, use_cost_ordering))
        if isinstance(op, MatchNoneFilter):
            matches_none = True
        elif isinstance(op, MatchAllFilter):
            matches_all = True
        else:
            children.append(op)
    if node.conjunctive:
        if matches_none:
            return MatchNoneFilter()
        if not children:
            return MatchAllFilter(segment.num_docs)
        if len(children) == 1:
            return children[0]
        if use_cost_ordering:
            children.sort(key=lambda op: op.cost())
        return AndFilter(children)
    if matches_all:
        return MatchAllFilter(segment.num_docs)
    if not children:
        return MatchNoneFilter()
    return children[0] if len(children) == 1 else OrFilter(children)


def _leaf_operator(segment: ImmutableSegment,
                   leaf: CompiledLeaf) -> FilterOperator:
    column = segment.column(leaf.column)
    match = leaf.bind(column.dictionary)
    if not match.ranges:
        return MatchNoneFilter()
    if match.is_all and not column.is_multi_value:
        # Predicate matches all values in this segment (§3.3.4).
        return MatchAllFilter(segment.num_docs)
    if column.is_sorted:
        return SortedRangeFilter(column, match)
    if column.inverted is not None:
        return InvertedFilter(column, match)
    return ScanFilter(column, match)
