"""Combining and reducing partial results (§3.3.3 steps 6-8).

Two levels of merging mirror the production system:

* :func:`combine_segment_results` — a server combines the partial
  results of all its segments into one :class:`ServerResult`;
* :func:`reduce_server_results` — the broker merges per-server results,
  finalizes aggregation states, applies ordering / offset / limit, and
  produces the :class:`BrokerResponse`. Server errors or timeouts mark
  the response partial instead of failing it (step 7).

Each level hands *all* its grouped partials to one N-way merge
(concatenate the key columns, give each an order-preserving integer
code — ``value - min`` for integer keys, the rank among distinct
values otherwise — number the groups once through
``groupby.combine_codes``, one reduction per state column) and all its
selection partials to one (concatenate, ``order_rows``: one stable
sort on a packed key, keep ``limit + offset``). Entries of a group
fold in input order, so a sum's bits are those of merging the inputs
one after another, and the merged groups come out in ascending key
order, as every grouped partial lists them. HAVING, ORDER BY / TOP-n
and the window run on the finalized arrays — a stable sort on the
ordering alone, the key order breaking ties; only the window's rows
become tuples.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import function_for
from repro.engine.groupby import DENSE_SLOTS_PER_ROW, combine_codes
from repro.engine.results import (
    AggregationPartial,
    BrokerResponse,
    GroupByPartial,
    ResultTable,
    SegmentResult,
    ServerResult,
    SelectionPartial,
    integer_codes,
    order_rows,
)
from repro.pql.ast_nodes import Aggregation, HavingCondition, Query


def _merge_all(query: Query, target: SegmentResult | ServerResult,
                results: list[SegmentResult] | list[ServerResult]) -> None:
    """Fold every result's stats and partials into ``target`` — the one
    merge step of both levels."""
    aggregations = query.aggregations
    for result in results:
        target.stats.merge(result.stats)
        if result.aggregation is not None:
            if target.aggregation is None:
                target.aggregation = AggregationPartial.empty(aggregations)
            target.aggregation.merge(result.aggregation, aggregations)
    grouped = [r.group_by for r in results if r.group_by is not None]
    if grouped:
        target.group_by = _merge_group_by(aggregations, grouped)
    selections = [r.selection for r in results if r.selection is not None]
    if selections:
        target.selection = _merge_selections(query, selections)


def _merge_group_by(aggregations: tuple[Aggregation, ...],
                    partials: list[GroupByPartial]) -> GroupByPartial:
    partials = [p for p in partials if p.num_groups]
    if len(partials) < 2:
        return partials[0] if partials else GroupByPartial()
    columns = [np.concatenate(parts)
               for parts in zip(*(p.keys for p in partials))]
    if len(columns) == 1 and columns[0].dtype.kind not in "biu":
        # One STRING or float key: its ranks already number the groups.
        uniques, codes = np.unique(columns[0], return_inverse=True)
        keys = [uniques]
    else:
        numbered = [_key_codes(column) for column in columns]
        codes, key_ids = combine_codes([span for __, span, __ in numbered],
                                       [ids for ids, __, __ in numbered])
        keys = [decode(ids)
                for (__, __, decode), ids in zip(numbered, key_ids)]
    return GroupByPartial(keys, [
        function_for(a).merge_grouped([p.states[i] for p in partials],
                                      codes, len(keys[0]))
        for i, a in enumerate(aggregations)
    ])


def _key_codes(column: np.ndarray):
    """One concatenated key column as (order-preserving int codes,
    their span, key ids -> key values). An integer or boolean column
    codes as ``value - min`` (``integer_codes``), which ``combine_codes``
    numbers by presence without a sort; any other column, or one wider
    than presence numbering takes, codes as its rank among its distinct
    values (``np.unique``) — which keeps the packed key space of many
    wide columns as small as their distinct counts."""
    if column.dtype.kind in "biu":
        codes, low, span = integer_codes(column)
        if span <= DENSE_SLOTS_PER_ROW * len(column):
            return codes, span, lambda ids: (ids + low).astype(column.dtype)
    uniques, ranks = np.unique(column, return_inverse=True)
    return ranks, len(uniques), uniques.__getitem__


def _merge_selections(query: Query,
                      partials: list[SelectionPartial]) -> SelectionPartial:
    filled = [p for p in partials if p.num_rows]
    if not filled:
        return partials[0]
    columns = filled[0].columns
    data = [np.concatenate(parts)
            for parts in zip(*(p.data for p in filled))]
    keep: slice | np.ndarray = slice(query.limit + query.offset)
    if query.order_by:
        keep = order_rows([
            (data[columns.index(o.expression.name)], o.descending)
            for o in query.order_by
        ])[keep]
    return SelectionPartial(columns, [column[keep] for column in data])


def combine_segment_results(query: Query, results: list[SegmentResult],
                            server: str = "local") -> ServerResult:
    """Merge per-segment partial results on one server."""
    combined = ServerResult(server=server)
    _merge_all(query, combined, results)
    return combined


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
    exceptions = [f"{result.server}: {result.error}"
                  for result in server_results if result.error is not None]
    merged = SegmentResult()
    _merge_all(query, merged,
                [r for r in server_results if r.error is None])

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
    aggregations = query.aggregations
    columns = tuple(str(g) for g in query.group_by) + tuple(
        str(a) for a in aggregations
    )
    if not partial.num_groups:
        return ResultTable(columns, [])
    keys = partial.keys
    values = [function_for(a).finalize_grouped(column)
              for a, column in zip(aggregations, partial.states)]
    if query.having:
        # HAVING: iceberg filtering on the finalized aggregates (§4.3).
        keep = np.ones(partial.num_groups, dtype=bool)
        for condition in query.having:
            keep &= _having_mask(
                condition, values[aggregations.index(condition.aggregation)])
        keys = [column[keep] for column in keys]
        values = [column[keep] for column in values]
    # PQL's default for TOP-n group-by is descending by the first
    # aggregation. Groups arrive in ascending key order and the sort is
    # stable, so the group key breaks every tie — deterministic TOP-n
    # truncation even when the ordered values tie at the cut-off.
    ordering = [(values[0], True)]
    if query.order_by:
        group_columns = list(query.group_by)
        ordering = [
            (values[aggregations.index(o.expression)]
             if isinstance(o.expression, Aggregation)
             else keys[group_columns.index(o.expression.name)], o.descending)
            for o in query.order_by
        ]
    window = order_rows(ordering, query.offset + query.limit)[query.offset:]
    return ResultTable(columns, list(zip(
        *(column[window].tolist() for column in keys + values))))


def _having_mask(condition: HavingCondition,
                 finalized: np.ndarray) -> np.ndarray:
    if finalized.dtype == object:  # holds a None, which matches nothing
        return np.fromiter(map(condition.matches, finalized.tolist()),
                           dtype=bool, count=len(finalized))
    return condition.matches(finalized)


def _finalize_selection(query: Query,
                        selection: SelectionPartial | None) -> ResultTable:
    if selection is None:
        columns = tuple(i.name for i in query.projections) or ("*",)
        return ResultTable(columns, [])
    # The merge left the rows ordered; ORDER BY columns the projection
    # lacks trail it and are dropped here.
    columns = selection.columns if query.select_star else (
        selection.columns[:len(query.projections)])
    window = slice(query.offset, query.offset + query.limit)
    return ResultTable(columns, list(zip(
        *(column[window].tolist()
          for column in selection.data[:len(columns)]))))
