"""Combining and reducing partial results (§3.3.3 steps 6-8).

Two levels of merging mirror the production system:

* :func:`combine_segment_results` — a server combines the partial
  results of all its segments into one :class:`ServerResult`;
* :func:`reduce_server_results` — the broker merges per-server results,
  finalizes aggregation states, applies ordering / offset / limit, and
  produces the :class:`BrokerResponse`. Server errors or timeouts mark
  the response partial instead of failing it (step 7).
"""

from __future__ import annotations

from repro.engine.aggregates import function_for
from repro.engine.results import (
    AggregationPartial,
    BrokerResponse,
    GroupByPartial,
    ResultTable,
    SegmentResult,
    ServerResult,
    SelectionPartial,
    group_sort_key,
    row_sort_key,
)
from repro.pql.ast_nodes import Query


def _merge_into(query: Query, target: SegmentResult | ServerResult,
                result: SegmentResult | ServerResult) -> None:
    """Fold ``result``'s stats and partials into ``target`` — the one
    merge step of both levels."""
    target.stats.merge(result.stats)
    if result.aggregation is not None:
        if target.aggregation is None:
            target.aggregation = AggregationPartial.empty(query.aggregations)
        target.aggregation.merge(result.aggregation, query.aggregations)
    if result.group_by is not None:
        if target.group_by is None:
            target.group_by = GroupByPartial()
        target.group_by.merge(result.group_by, query.aggregations)
    if result.selection is not None:
        if target.selection is None:
            target.selection = SelectionPartial(result.selection.columns)
        target.selection.rows.extend(result.selection.rows)


def combine_segment_results(query: Query, results: list[SegmentResult],
                            server: str = "local") -> ServerResult:
    """Merge per-segment partial results on one server."""
    combined = ServerResult(server=server)
    for result in results:
        _merge_into(query, combined, result)
    _trim_selection(query, combined.selection)
    return combined


def _trim_selection(query: Query, selection: SelectionPartial | None) -> None:
    if selection is None:
        return
    needed = query.limit + query.offset
    if not query.order_by:
        del selection.rows[needed:]
        return
    key = row_sort_key(query, selection.columns)
    if key is not None:
        selection.rows.sort(key=key)
    del selection.rows[needed:]


def reduce_server_results(query: Query, server_results: list[ServerResult],
                          time_used_ms: float = 0.0,
                          recovered_exceptions: list[str] | None = None,
                          ) -> BrokerResponse:
    """Broker-side reduce: merge per-server results into the response.

    ``recovered_exceptions`` are errors the broker already repaired by
    retrying on another replica; they are surfaced for observability but
    do not mark the response partial — only errors in
    ``server_results`` (segments no replica could serve) do.
    """
    exceptions: list[str] = []
    merged = SegmentResult()
    for result in server_results:
        if result.error is not None:
            exceptions.append(f"{result.server}: {result.error}")
            continue
        _merge_into(query, merged, result)

    if query.group_by:
        table = _finalize_group_by(query, merged.group_by or GroupByPartial())
    elif query.is_aggregation:
        table = _finalize_aggregation(
            query, merged.aggregation
            or AggregationPartial.empty(query.aggregations)
        )
    else:
        table = _finalize_selection(query, merged.selection)

    return BrokerResponse(
        table=table,
        stats=merged.stats,
        is_partial=bool(exceptions),
        exceptions=exceptions,
        time_used_ms=time_used_ms,
        recovered_exceptions=list(recovered_exceptions or ()),
    )


def _finalize_aggregation(query: Query,
                          partial: AggregationPartial) -> ResultTable:
    columns = tuple(str(a) for a in query.aggregations)
    row = tuple(
        function_for(a).finalize(state)
        for a, state in zip(query.aggregations, partial.states)
    )
    return ResultTable(columns, [row])


def _finalize_group_by(query: Query, partial: GroupByPartial) -> ResultTable:
    columns = tuple(str(g) for g in query.group_by) + tuple(
        str(a) for a in query.aggregations
    )
    having_specs = [
        (query.aggregations.index(condition.aggregation), condition)
        for condition in query.having
    ]
    entries = []
    for key, states in partial.groups.items():
        values = tuple(
            function_for(a).finalize(state)
            for a, state in zip(query.aggregations, states)
        )
        # HAVING: iceberg filtering on the finalized aggregates (§4.3).
        if any(not condition.matches(values[index])
               for index, condition in having_specs):
            continue
        entries.append((key, values))
    entries.sort(key=group_sort_key(query))
    window = entries[query.offset:query.offset + query.limit]
    rows = [key + values for key, values in window]
    return ResultTable(columns, rows)


def _finalize_selection(query: Query,
                        selection: SelectionPartial | None) -> ResultTable:
    if selection is None:
        columns = tuple(i.name for i in query.projections) or ("*",)
        return ResultTable(columns, [])
    rows = selection.rows
    if query.order_by:
        key = row_sort_key(query, selection.columns)
        if key is not None:
            rows = sorted(rows, key=key)
    rows = rows[query.offset:query.offset + query.limit]
    return ResultTable(selection.columns, list(rows))
