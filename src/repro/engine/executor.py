"""Per-segment query execution (§3.3.4).

Executes a :class:`~repro.engine.planner.SegmentPlan`:

* ``METADATA`` plans answer straight from segment metadata without
  touching any index (the ``SELECT COUNT(*)`` fast path of §4.1);
* ``TIME_INDEX`` plans aggregate the buckets of a timestamp-index
  rollup;
* ``STAR_TREE`` plans traverse the segment's star-tree and aggregate
  pre-aggregated records (§4.3);
* ``SCAN`` plans run the physical filter, then aggregate / group /
  project the surviving documents.

The first three only pick pre-aggregated rows and key their groups;
the states come from each function's ``aggregate_rollup``, so a merge
cannot tell which plan kind produced a partial.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import function_for
from repro.engine.groupby import execute_group_by, selected_values
from repro.engine.operators import DocSelection
from repro.engine.planner import (
    CompiledQuery,
    PlanKind,
    SegmentPlan,
    bucket_rollup,
    metadata_rollup,
    plan_segment,
)
from repro.engine.results import (
    AggregationPartial,
    ExecutionStats,
    GroupByPartial,
    SegmentResult,
    SelectionPartial,
    order_rows,
    selection_columns,
)
from repro.pql.ast_nodes import Query
from repro.segment.segment import Column, ImmutableSegment


def execute_segment(segment: ImmutableSegment,
                    query: Query | CompiledQuery,
                    use_cost_ordering: bool = True,
                    allow_star_tree: bool = True,
                    vectorized: bool = True,
                    valid_docs: DocSelection | None = None) -> SegmentResult:
    """Plan and execute ``query`` on one segment. A server passes the
    :class:`CompiledQuery` it compiled once for all its segments, so
    planning here is only the per-segment bind.

    ``vectorized=False`` bypasses the planner and batch kernels entirely
    and runs the row-at-a-time scalar oracle (:mod:`repro.engine.scalar`)
    — selectable per query via ``OPTION(vectorized=false)`` and per
    cluster via ``ServerInstance.default_vectorized``.

    ``valid_docs`` is an upsert table's valid-docId selection: both
    engines intersect it before filter evaluation, so superseded rows
    are invisible whichever engine (or mix of engines) runs the query.
    """
    if valid_docs is not None and valid_docs.count >= segment.num_docs:
        valid_docs = None  # every doc valid: keep the unmasked fast paths
    if not vectorized:
        from repro.engine.scalar import execute_segment_scalar

        if isinstance(query, CompiledQuery):
            query = query.query
        return execute_segment_scalar(segment, query, valid_docs=valid_docs)
    plan = plan_segment(segment, query, use_cost_ordering,
                        allow_star_tree and valid_docs is None,
                        allow_metadata_only=valid_docs is None,
                        allow_time_index=valid_docs is None)
    return execute_plan(plan, valid_docs=valid_docs)


def execute_plan(plan: SegmentPlan,
                 valid_docs: DocSelection | None = None) -> SegmentResult:
    query = plan.query
    segment = plan.segment
    stats = ExecutionStats(num_segments_queried=1,
                           num_segments_processed=1,
                           total_docs=segment.num_docs)

    if plan.kind is PlanKind.METADATA:
        assert valid_docs is None, (
            "metadata plans answer over all docs; planner must not pick "
            "them under a partial valid-docId mask"
        )
        stats.metadata_only = True
        stats.num_segments_matched = 1
        return _execute_metadata(segment, query, stats)

    if plan.kind is PlanKind.TIME_INDEX:
        assert valid_docs is None, (
            "timestamp-index rollups pre-aggregate every stored doc; "
            "planner must not pick them under a partial valid-docId mask"
        )
        return _execute_time_index(plan, stats)

    if plan.kind is PlanKind.STAR_TREE:
        from repro.startree.query import execute_on_star_tree

        assert valid_docs is None, (
            "star-tree pre-aggregation ignores valid-docId masks"
        )
        assert plan.star_constraints is not None
        partial, docs_scanned = execute_on_star_tree(
            segment, query, plan.star_constraints
        )
        stats.startree_used = True
        stats.startree_docs_scanned = docs_scanned
        stats.num_docs_scanned = docs_scanned
        stats.num_segments_matched = 1
        result = SegmentResult(stats=stats)
        if query.group_by:
            result.group_by = partial
        else:
            result.aggregation = partial
        return result

    assert plan.filter_plan is not None
    selection = plan.filter_plan.execute(valid_docs)
    stats.num_entries_scanned_in_filter = (
        plan.filter_plan.stats.entries_scanned
    )
    stats.num_docs_scanned = selection.count
    stats.raw_docs_matched = selection.count
    if not selection.is_empty:
        stats.num_segments_matched = 1

    result = SegmentResult(stats=stats)
    if query.group_by:
        result.group_by = execute_group_by(segment, query, selection)
        stats.num_entries_scanned_post_filter = selection.count * (
            len(query.group_by) + sum(
                1 for a in query.aggregations
                if function_for(a).needs_values
            )
        )
    elif query.is_aggregation:
        result.aggregation = _execute_aggregation(segment, query, selection,
                                                  stats)
    else:
        result.selection = _execute_selection(segment, query, selection)
        stats.num_entries_scanned_post_filter = (
            min(selection.count, query.limit + query.offset)
            * len(result.selection.columns)
        )
    return result


def prune_result(segment: ImmutableSegment, query: Query) -> SegmentResult:
    """The result for a segment skipped by the server-side pruner:
    counted as queried (its docs appear in total_docs) but never
    processed."""
    stats = ExecutionStats(num_segments_queried=1,
                           total_docs=segment.num_docs,
                           num_segments_pruned_by_server=1)
    return _empty_result(query, stats)


def _empty_result(query: Query, stats: ExecutionStats) -> SegmentResult:
    result = SegmentResult(stats=stats)
    if query.group_by:
        result.group_by = GroupByPartial()
    elif query.is_aggregation:
        result.aggregation = AggregationPartial.empty(query.aggregations)
    else:
        result.selection = SelectionPartial(selection_columns(query, ("*",)))
    return result


# -- timestamp-index plans ---------------------------------------------------


def _execute_time_index(plan: SegmentPlan,
                        stats: ExecutionStats) -> SegmentResult:
    """Aggregate pre-aggregated rollup buckets instead of raw rows."""
    query = plan.query
    rollup = plan.time_rollup
    assert rollup is not None
    window = rollup.slice_range(plan.time_low, plan.time_high)
    buckets = rollup.buckets[window]
    stats.time_index_used = True
    stats.time_index_buckets_scanned = len(buckets)
    if len(buckets):
        stats.num_segments_matched = 1

    codes, keys = None, np.empty(0, dtype=np.int64)
    if query.group_by:
        size = plan.time_bucket_size or 1
        bucket_keys = (buckets // size) * size if size > 1 else buckets
        keys, codes = np.unique(bucket_keys, return_inverse=True)
    states = [
        function_for(a).aggregate_rollup(bucket_rollup(rollup, a.column),
                                         window, codes, len(keys))
        for a in query.aggregations
    ]
    if query.group_by:
        return SegmentResult(group_by=GroupByPartial([keys], states),
                             stats=stats)
    return SegmentResult(aggregation=AggregationPartial(states), stats=stats)


# -- metadata-only plans -----------------------------------------------------


def _execute_metadata(segment: ImmutableSegment, query: Query,
                      stats: ExecutionStats) -> SegmentResult:
    states = [
        function_for(a).aggregate_rollup(metadata_rollup(segment, a.column),
                                         slice(None))
        for a in query.aggregations
    ]
    return SegmentResult(aggregation=AggregationPartial(states), stats=stats)


# -- aggregation -----------------------------------------------------------


def _execute_aggregation(segment: ImmutableSegment, query: Query,
                         selection: DocSelection,
                         stats: ExecutionStats) -> AggregationPartial:
    states = []
    # What subscripts a column down to the selection: slices of a
    # contiguous range — the vectorized fast path of §4.2 — else doc
    # ids, made when the first aggregate needs values (COUNT(*) alone
    # never does) and then shared.
    rows = None
    gathered: dict[str, np.ndarray] = {}
    for aggregation in query.aggregations:
        func = function_for(aggregation)
        if not func.needs_values:
            states.append(func.aggregate(np.empty(selection.count)))
            continue
        if rows is None:
            rows = selection.index()
        values = selected_values(segment, aggregation.column, rows,
                                 gathered)
        stats.num_entries_scanned_post_filter += len(values)
        states.append(func.aggregate(values))
    return AggregationPartial(states)


# -- selection (projection) queries ---------------------------------------


def _execute_selection(segment: ImmutableSegment, query: Query,
                       selection: DocSelection) -> SelectionPartial:
    columns = selection_columns(query, segment.schema.column_names)
    docs = selection.doc_array()
    if query.order_by:
        # Sorted dictionaries: id order is value order, so the docs are
        # ordered on their ids — one packed key, one stable argsort: ties
        # stay in doc order — before any is decoded.
        docs = docs[order_rows([
            (_cells(segment.column(o.expression.name), docs, Column.dict_ids),
             o.descending)
            for o in query.order_by
        ])]
    docs = docs[:query.limit + query.offset]
    return SelectionPartial(
        columns, [_cells(segment.column(name), docs) for name in columns])


def _cells(column: Column, docs: np.ndarray,
           single_value=Column.values) -> np.ndarray:
    """``docs``' cells of ``column``: ``single_value(column)[docs]`` — a
    copy, a partial never holds a view of a column's memoised values —
    or, multi-value, one tuple per doc."""
    if column.is_multi_value:
        cells = (tuple(column.value_of_doc(doc)) for doc in docs.tolist())
        return np.fromiter(cells, dtype=object, count=len(docs))
    return single_value(column)[docs]
