"""Scalar (row-at-a-time) segment executor — the vectorized engine's oracle.

The batch engine in :mod:`repro.engine.executor` evaluates predicates
and aggregates over numpy column arrays (selection vectors, grouped
kernels, late materialization). This module is its deliberately naive
counterpart: every document is visited one at a time, predicate trees
are interpreted per row over materialized Python values, and aggregates
accumulate in plain Python loops. It shares the AST and the *state
shapes* with the vectorized engine (partial states must merge across
servers regardless of which engine produced them) but none of its
kernels, plans, or index structures — a bug in selection vectors,
bitmap unions, dictionary-id range compilation or grouped kernels
cannot cancel itself out here. It accumulates into plain dicts and
row lists and converts on its last line (``from_groups`` /
``from_rows``); what a query is refused for
(``planner.validate_columns``) is shared, so both engines fail alike.

Selected per query with ``OPTION(vectorized=false)`` or per cluster via
``ServerInstance.default_vectorized`` — see docs/ENGINE.md. It is the
reference of ``tests/engine/test_query_log_parity.py`` and the system
under test of the scalar leg of the CI simulation sweep.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter
from typing import Any, Callable

from repro.common.types import DataType
from repro.engine.aggregates import distinct_dtype, distinct_state
from repro.engine.planner import validate_columns
from repro.engine.results import (
    AggregationPartial,
    ExecutionStats,
    GroupByPartial,
    SegmentResult,
    SelectionPartial,
    selection_columns,
)
from repro.errors import ExecutionError, PlanningError
from repro.pql.ast_nodes import (
    AggFunc,
    Aggregation,
    And,
    Between,
    CompareOp,
    Comparison,
    In,
    Like,
    Or,
    Predicate,
    Query,
    TimeBucket,
    group_by_column,
)
from repro.segment.segment import Column, ImmutableSegment

_PERCENTILE_FUNCS = frozenset({
    AggFunc.PERCENTILE50, AggFunc.PERCENTILE90,
    AggFunc.PERCENTILE95, AggFunc.PERCENTILE99,
})
_PERCENTILE_EST_FUNCS = frozenset({
    AggFunc.PERCENTILEEST50, AggFunc.PERCENTILEEST90,
    AggFunc.PERCENTILEEST95, AggFunc.PERCENTILEEST99,
})

#: (value getter, per-row truth test). The getter returns the row's
#: value — a list for multi-value columns, where a leaf matches when
#: ANY entry matches (Pinot's multi-value semantics, which the
#: vectorized engine implements by complement id ranges; NOT is pushed
#: into leaves before evaluation so both engines agree on rows like
#: ``{a, b}`` under ``c != a``).
_RowTest = Callable[[int], bool]


def execute_segment_scalar(segment: ImmutableSegment,
                           query: Query,
                           valid_docs=None) -> SegmentResult:
    """Execute ``query`` on one segment, one document at a time.

    ``valid_docs`` (a :class:`~repro.engine.operators.DocSelection`, or
    None for all-valid) is an upsert table's valid-docId mask: invalid
    docs are skipped before the predicate runs, mirroring the vectorized
    engine's base-selection intersection exactly.
    """
    validate_columns(segment, query)
    stats = ExecutionStats(num_segments_queried=1,
                           num_segments_processed=1,
                           total_docs=segment.num_docs)

    test = _compile_predicate(segment, query.where)
    leaves = _count_leaves(query.where)
    if valid_docs is not None:
        valid_mask = valid_docs.mask(segment.num_docs)
        predicate_test = test

        def test(doc: int) -> bool:
            return bool(valid_mask[doc]) and predicate_test(doc)

    if query.group_by:
        result = SegmentResult(stats=stats)
        result.group_by = _execute_group_by(segment, query, test, stats)
        matched = stats.raw_docs_matched
    elif query.is_aggregation:
        result = SegmentResult(stats=stats)
        result.aggregation = _execute_aggregation(segment, query, test,
                                                  stats)
        matched = stats.raw_docs_matched
    else:
        result = SegmentResult(stats=stats)
        result.selection = _execute_selection(segment, query, test, stats)
        matched = stats.raw_docs_matched
    stats.num_docs_scanned = matched
    stats.num_entries_scanned_in_filter = segment.num_docs * leaves
    if matched:
        stats.num_segments_matched = 1
    return result


# -- predicate interpretation ------------------------------------------------


def _count_leaves(predicate: Predicate | None) -> int:
    if predicate is None:
        return 0
    if isinstance(predicate, (And, Or)):
        return sum(_count_leaves(c) for c in predicate.children)
    return 1


def _coerce_literal(column: Column, value: Any) -> Any:
    """Mirror the vectorized compiler's literal coercion rules: numeric
    literals against string columns become strings, string literals
    against numeric columns are a planning error."""
    dtype = column.dictionary.dtype
    if dtype is DataType.STRING and not isinstance(value, str):
        return str(value)
    if dtype is not DataType.STRING and isinstance(value, str):
        raise PlanningError(
            f"cannot compare string literal {value!r} against numeric "
            "column"
        )
    return value


def _compile_predicate(segment: ImmutableSegment,
                       predicate: Predicate | None) -> _RowTest:
    """Build a per-document truth test interpreting the predicate AST.

    NOT is pushed into the leaves first (the same NNF transform the
    broker's rewriter applies) because Pinot's multi-value semantics
    negate at the *value* level: ``mv != a`` matches a document when any
    entry differs from ``a``, not when no entry equals it.
    """
    if predicate is None:
        return lambda doc: True
    from repro.pql.rewriter import normalize_predicate

    return _compile_node(segment, normalize_predicate(predicate))


def _compile_node(segment: ImmutableSegment,
                  predicate: Predicate) -> _RowTest:
    if isinstance(predicate, And):
        tests = [_compile_node(segment, c) for c in predicate.children]
        return lambda doc: all(t(doc) for t in tests)
    if isinstance(predicate, Or):
        tests = [_compile_node(segment, c) for c in predicate.children]
        return lambda doc: any(t(doc) for t in tests)
    return _compile_scalar_leaf(segment, predicate)


def _compile_scalar_leaf(segment: ImmutableSegment,
                         predicate: Predicate) -> _RowTest:
    column = segment.column(getattr(predicate, "column"))
    value_test = _leaf_value_test(column, predicate)
    if column.is_multi_value:
        def test(doc: int) -> bool:
            return any(value_test(v) for v in column.value_of_doc(doc))
    else:
        def test(doc: int) -> bool:
            return value_test(column.value_of_doc(doc))
    return test


def _leaf_value_test(column: Column,
                     predicate: Predicate) -> Callable[[Any], bool]:
    """The per-value truth test for one leaf predicate."""
    if isinstance(predicate, Comparison):
        literal = _coerce_literal(column, predicate.value)
        op = predicate.op
        if op is CompareOp.EQ:
            return lambda v: v == literal
        if op is CompareOp.NEQ:
            return lambda v: v != literal
        if op is CompareOp.LT:
            return lambda v: v < literal
        if op is CompareOp.LTE:
            return lambda v: v <= literal
        if op is CompareOp.GT:
            return lambda v: v > literal
        return lambda v: v >= literal
    if isinstance(predicate, In):
        literals = {_coerce_literal(column, v) for v in predicate.values}
        if predicate.negated:
            return lambda v: v not in literals
        return lambda v: v in literals
    if isinstance(predicate, Between):
        low = _coerce_literal(column, predicate.low)
        high = _coerce_literal(column, predicate.high)
        return lambda v: low <= v <= high
    if isinstance(predicate, Like):
        if column.dictionary.dtype is not DataType.STRING:
            raise PlanningError(
                f"LIKE requires a string column, {predicate.column!r} is "
                f"{column.dictionary.dtype.value}"
            )
        regex = re.compile(predicate.to_regex())
        if predicate.negated:
            return lambda v: regex.fullmatch(v) is None
        return lambda v: regex.fullmatch(v) is not None
    raise PlanningError(f"not a leaf predicate: {predicate!r}")


# -- scalar aggregation accumulators -----------------------------------------


class _Accumulator:
    """Row-at-a-time accumulator producing the same partial-state shape
    as the vectorized :class:`~repro.engine.aggregates.AggregateFunction`
    (states must merge across servers regardless of engine)."""

    def __init__(self, aggregation: Aggregation, column: Column | None):
        self.func = aggregation.func
        self.column = column
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf
        self.values: list[Any] = []
        self.distinct: set[Any] = set()
        self.hll = None
        if self.func is AggFunc.DISTINCTCOUNTHLL:
            from repro.engine.aggregates import function_for

            self.hll = function_for(aggregation).init_empty()

    def add(self, doc: int) -> None:
        self.count += 1
        if self.column is None:
            return  # COUNT needs no values
        value = self.column.value_of_doc(doc)
        func = self.func
        if func in (AggFunc.SUM, AggFunc.AVG):
            self.total += value
        elif func is AggFunc.MIN:
            if value < self.low:
                self.low = value
        elif func is AggFunc.MAX:
            if value > self.high:
                self.high = value
        elif func is AggFunc.MINMAXRANGE:
            if value < self.low:
                self.low = value
            if value > self.high:
                self.high = value
        elif func is AggFunc.DISTINCTCOUNT:
            self.distinct.add(value)
        elif func is AggFunc.DISTINCTCOUNTHLL:
            self.hll.add(value)
        elif func in _PERCENTILE_FUNCS or func in _PERCENTILE_EST_FUNCS:
            self.values.append(value)
        else:
            raise ExecutionError(f"unsupported aggregation {func}")

    def state(self) -> Any:
        func = self.func
        if func is AggFunc.COUNT:
            return self.count
        if func is AggFunc.SUM:
            return float(self.total)
        if func is AggFunc.MIN:
            return float(self.low)
        if func is AggFunc.MAX:
            return float(self.high)
        if func is AggFunc.AVG:
            return (float(self.total), self.count)
        if func is AggFunc.MINMAXRANGE:
            return (float(self.low), float(self.high))
        if func is AggFunc.DISTINCTCOUNT:
            return distinct_state(self.distinct, distinct_dtype(
                self.column.dictionary.dtype.numpy_dtype))
        if func is AggFunc.DISTINCTCOUNTHLL:
            return self.hll
        if func in _PERCENTILE_EST_FUNCS:
            # Build the sketch from values in document order — the same
            # insertion sequence as the vectorized aggregate, so the
            # partial states are identical (not just close).
            from repro.engine.approx import sketch_of

            return sketch_of(self.values)
        return tuple(self.values)


def _make_accumulators(segment: ImmutableSegment,
                       query: Query) -> list[_Accumulator]:
    accumulators = []
    for aggregation in query.aggregations:
        column = (None if aggregation.func is AggFunc.COUNT
                  else segment.column(aggregation.column))
        accumulators.append(_Accumulator(aggregation, column))
    return accumulators


def _execute_aggregation(segment: ImmutableSegment, query: Query,
                         test: _RowTest,
                         stats: ExecutionStats) -> AggregationPartial:
    accumulators = _make_accumulators(segment, query)
    matched = 0
    for doc in range(segment.num_docs):
        if not test(doc):
            continue
        matched += 1
        for accumulator in accumulators:
            accumulator.add(doc)
    stats.raw_docs_matched = matched
    stats.num_entries_scanned_post_filter = matched * sum(
        1 for a in accumulators if a.column is not None
    )
    return AggregationPartial([a.state() for a in accumulators])


# -- scalar group-by ---------------------------------------------------------


def _execute_group_by(segment: ImmutableSegment, query: Query,
                      test: _RowTest,
                      stats: ExecutionStats) -> GroupByPartial:
    group_columns = [segment.column(group_by_column(g))
                     for g in query.group_by]
    multi_value = [c for c in group_columns if c.is_multi_value]
    if len(multi_value) > 1:
        raise ExecutionError(
            "at most one multi-value group-by column is supported; got "
            f"{[c.name for c in multi_value]}"
        )

    accumulators: dict[tuple, list[_Accumulator]] = {}
    matched = 0
    entries = 0
    for doc in range(segment.num_docs):
        if not test(doc):
            continue
        matched += 1
        # A multi-value group column yields one group *per entry* of the
        # document (duplicate entries count twice — matching the
        # vectorized engine's np.repeat expansion).
        keys: list[tuple] = [()]
        for expr, column in zip(query.group_by, group_columns):
            value = column.value_of_doc(doc)
            if isinstance(expr, TimeBucket):
                if column.is_multi_value:
                    raise ExecutionError(
                        "timebucket requires a single-value column"
                    )
                keys = [key + (expr.bucket_of(value),) for key in keys]
            elif column.is_multi_value:
                keys = [key + (entry,) for key in keys for entry in value]
            else:
                keys = [key + (value,) for key in keys]
        for key in keys:
            entries += 1
            group = accumulators.get(key)
            if group is None:
                group = _make_accumulators(segment, query)
                accumulators[key] = group
            for accumulator in group:
                accumulator.add(doc)
    stats.raw_docs_matched = matched
    values_needed = sum(
        1 for a in query.aggregations if a.func is not AggFunc.COUNT
    )
    stats.num_entries_scanned_post_filter = entries * (
        len(group_columns) + values_needed
    )
    return GroupByPartial.from_groups(
        {key: [a.state() for a in group]
         for key, group in accumulators.items()},
        query.aggregations,
    )


# -- scalar selection (projection) -------------------------------------------


def _plain(value: Any) -> Any:
    import numpy as np

    return value.item() if isinstance(value, np.generic) else value


def _execute_selection(segment: ImmutableSegment, query: Query,
                       test: _RowTest,
                       stats: ExecutionStats) -> SelectionPartial:
    columns = selection_columns(query, segment.schema.column_names)
    needed = query.limit + query.offset
    bounded = not query.order_by

    column_objects = [segment.column(name) for name in columns]
    rows: list[tuple] = []
    matched = 0
    for doc in range(segment.num_docs):
        if not test(doc):
            continue
        matched += 1
        if bounded and len(rows) >= needed:
            continue  # keep counting matches; rows are already bounded
        row = tuple(
            tuple(column.value_of_doc(doc)) if column.is_multi_value
            else _plain(column.value_of_doc(doc))
            for column in column_objects
        )
        rows.append(row)
    stats.raw_docs_matched = matched
    stats.num_entries_scanned_post_filter = len(rows) * len(columns)
    # One stable pass per ORDER BY column, least significant first
    # (``reverse`` keeps equal rows in their order).
    for ordering in reversed(query.order_by):
        rows.sort(key=itemgetter(columns.index(ordering.expression.name)),
                  reverse=ordering.descending)
    return SelectionPartial.from_rows(columns, rows[:needed])
