"""Partials as column blocks: merge, wire and per-segment selection.

* An N-way merge equals folding the inputs pairwise in order — bit for
  bit, sums included — and equals the row-wise merge the blocks
  replaced (kept here as the reference).
* Blocks survive the codec through real JSON text: empty, one row,
  STRING / TIMEBUCKET keys, multi-value cells.
* A segment's selection partial never holds more than ``limit +
  offset`` rows, ordered before they are decoded, and carries the
  ORDER BY columns its projection lacks.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.aggregates import function_for
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.results import (
    GroupByPartial,
    SegmentResult,
    SelectionPartial,
    ServerResult,
)
from repro.errors import PlanningError
from repro.net import decode, encode, json_roundtrip
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder
from tests.states import exact_states

ALL_AGGREGATES = (
    "count(*), sum(m), min(m), max(m), avg(m), minmaxrange(m), "
    "distinctcount(m), distinctcounthll(m), percentile90(m), "
    "percentileest90(m)"
)


def q(text):
    return optimize(parse(text))


# -- (a) N-way merge = left fold = the row-wise merge ------------------------


def reference_merge(aggregations, partials):
    """The merge group maps had before they were blocks: key by key,
    state by state, one input after another."""
    funcs = [function_for(a) for a in aggregations]
    merged = {}
    for groups in partials:
        for key, states in groups.items():
            mine = merged.get(key)
            if mine is None:
                merged[key] = list(states)
            else:
                for i, func in enumerate(funcs):
                    mine[i] = func.merge(mine[i], states[i])
    return merged


def bits(groups):
    """Group maps with every float spelled out: ``==`` alone would
    pass a sum that differs in the sign of zero."""
    def spell(state):
        if isinstance(state, float):
            return state.hex()
        if isinstance(state, tuple):
            return tuple(map(spell, state))
        return exact_states(state)
    return {key: [spell(s) for s in states] for key, states in groups.items()}


# Sevenths: inexact, so a sum depends on the order it is taken in.
inexact = st.integers(-10 ** 6, 10 ** 6).map(lambda i: i / 7)
group_values = st.lists(inexact, min_size=1, max_size=6)
KEYS = {
    "s": st.tuples(st.sampled_from("abcd")),
    "s, n": st.tuples(st.sampled_from("ab"), st.integers(0, 2)),
    "timebucket(day, 2)": st.tuples(st.integers(50, 53).map(lambda d: d * 2)),
}


@st.composite
def partial_lists(draw):
    group_by = draw(st.sampled_from(sorted(KEYS)))
    query = q(f"SELECT {ALL_AGGREGATES} FROM t GROUP BY {group_by} TOP 100")
    funcs = [function_for(a) for a in query.aggregations]
    partials = draw(st.lists(
        st.dictionaries(KEYS[group_by], group_values, max_size=5),
        min_size=1, max_size=5))
    return query, [
        {key: [f.aggregate(np.asarray(values)) for f in funcs]
         for key, values in groups.items()}
        for groups in partials
    ]


@settings(max_examples=80, deadline=None)
@given(partial_lists())
def test_n_way_merge_is_the_left_fold(case):
    query, partials = case
    aggregations = query.aggregations

    def block(groups):
        return SegmentResult(
            group_by=GroupByPartial.from_groups(groups, aggregations))

    all_at_once = combine_segment_results(
        query, [block(groups) for groups in partials]).group_by
    folded = block(partials[0]).group_by
    for groups in partials[1:]:
        folded = combine_segment_results(
            query, [SegmentResult(group_by=folded), block(groups)]).group_by
    want = bits(reference_merge(aggregations, partials))
    assert bits(all_at_once.groups(aggregations)) == want
    assert bits(folded.groups(aggregations)) == want


def test_state_columns_are_typed_arrays():
    query = q(f"SELECT {ALL_AGGREGATES} FROM t GROUP BY s TOP 10")
    funcs = [function_for(a) for a in query.aggregations]
    values = np.asarray([1.5, 2.5])
    partial = GroupByPartial.from_groups(
        {("x",): [f.aggregate(values) for f in funcs]}, query.aggregations)
    count, total, low, high, avg, spread = partial.states[:6]
    assert count.dtype == np.int64
    assert {total.dtype, low.dtype, high.dtype} == {np.dtype(np.float64)}
    assert (avg[0].dtype, avg[1].dtype) == (np.float64, np.int64)
    assert (spread[0].dtype, spread[1].dtype) == (np.float64, np.float64)
    assert all(isinstance(column, list) for column in partial.states[6:])


# -- a segment with every kind of column -------------------------------------


@pytest.fixture(scope="module")
def segment():
    schema = Schema("t", [
        dimension("s"), dimension("n", DataType.LONG),
        dimension("tags", DataType.STRING, multi_value=True),
        metric("m", DataType.LONG), metric("f", DataType.DOUBLE),
        time_column("day", DataType.INT),
    ])
    rng = random.Random(5)
    builder = SegmentBuilder("seg", "t", schema)
    builder.add_all(
        {"s": rng.choice("abcde"), "n": rng.randint(0, 9),
         "tags": rng.sample(["x", "y", "z"], k=rng.randint(0, 3)),
         "m": rng.randint(0, 100), "f": round(rng.random() * 10, 3),
         "day": 100 + rng.randint(0, 9)}
        for __ in range(300)
    )
    return builder.build()


def both_engines(segment, query):
    return [execute_segment(segment, query, vectorized=vectorized)
            for vectorized in (True, False)]


def rows_of(query, result):
    return reduce_server_results(
        query, [combine_segment_results(query, [result])]).rows


# -- (b) the codec carries blocks through JSON text --------------------------


def through_the_wire(obj):
    return decode(json_roundtrip(encode(obj)))


@pytest.mark.parametrize("text", [
    "SELECT count(*), avg(f) FROM t GROUP BY s TOP 10",               # STRING
    "SELECT sum(m) FROM t GROUP BY timebucket(day, 3), n TOP 100",
    "SELECT distinctcount(s), percentile50(f) FROM t GROUP BY tags TOP 5",
    "SELECT min(m) FROM t WHERE n = 3 AND s = 'a' GROUP BY day TOP 5",
    "SELECT max(f) FROM t WHERE n > 100 GROUP BY s TOP 5",             # empty
])
def test_group_by_blocks_round_trip(segment, text):
    query = q(text)
    for result in both_engines(segment, query):
        partial = result.group_by
        shipped = through_the_wire(partial)
        aggregations = query.aggregations
        assert (exact_states(shipped.groups(aggregations))
                == exact_states(partial.groups(aggregations)))
        assert ([k.dtype for k in shipped.keys]
                == [k.dtype for k in partial.keys])
        assert rows_of(query, SegmentResult(group_by=shipped)) == rows_of(
            query, result)


@pytest.mark.parametrize("text", [
    "SELECT s, tags, f FROM t ORDER BY f DESC LIMIT 7",   # multi-value cells
    "SELECT tags FROM t WHERE n = 2 LIMIT 4",
    "SELECT * FROM t ORDER BY day, m LIMIT 3",
    "SELECT n FROM t WHERE m = 17 LIMIT 1",                # one row
    "SELECT s FROM t WHERE m > 1000 LIMIT 5",              # empty
])
def test_selection_blocks_round_trip(segment, text):
    query = q(text)
    for result in both_engines(segment, query):
        partial = result.selection
        shipped = through_the_wire(partial)
        assert shipped.columns == partial.columns
        assert shipped.rows() == partial.rows()
        cells = [cell for row in shipped.rows() for cell in row]
        assert not any(isinstance(cell, (list, np.generic)) for cell in cells)
        if "tags" in text and partial.num_rows:
            assert any(isinstance(cell, tuple) for cell in cells)


def test_empty_blocks_round_trip():
    assert through_the_wire(GroupByPartial()).num_groups == 0
    shipped = through_the_wire(SelectionPartial(("a", "b")))
    assert (shipped.columns, shipped.num_rows, shipped.rows()) == (
        ("a", "b"), 0, [])
    response = reduce_server_results(
        q("SELECT a, b FROM t"), [ServerResult("s1", selection=shipped)])
    assert response.rows == []


# -- (d) per-segment selection is bounded before it is decoded ---------------


@pytest.mark.parametrize("order", ["", "ORDER BY f DESC, s"])
def test_selection_keeps_at_most_limit_plus_offset_rows(segment, order):
    query = q(f"SELECT s, f, tags FROM t WHERE n < 8 {order} LIMIT 5, 4")
    matching = execute_segment(
        segment, q("SELECT count(*) FROM t WHERE n < 8")).aggregation.states[0]
    assert matching > 50
    result = execute_segment(segment, query)
    assert result.stats.num_docs_scanned == matching
    assert result.selection.num_rows == 9
    assert all(len(column) == 9 for column in result.selection.data)
    assert result.stats.num_entries_scanned_post_filter == 9 * 3


def test_partials_do_not_alias_the_segment(segment):
    """A block handed to the transport is the server's to lose: it
    must not be a view of a column's memoised values."""
    for text in ("SELECT n, f FROM t LIMIT 20",
                 "SELECT n, f FROM t ORDER BY n LIMIT 20",
                 "SELECT sum(f) FROM t GROUP BY n, day TOP 5"):
        result = execute_segment(segment, q(text))
        block = result.selection.data if result.selection else (
            result.group_by.keys)
        for array in block:
            assert not any(np.shares_memory(array, segment.column(c).values())
                           for c in ("n", "f", "day"))


# -- ORDER BY a column the projection lacks ----------------------------------


def test_order_by_a_column_that_is_not_projected(segment):
    query = q("SELECT n FROM t WHERE m < 50 ORDER BY s DESC, f LIMIT 2, 6")
    want = sorted(
        (r for r in segment.iter_records() if r["m"] < 50),
        key=lambda r: ([-ord(c) for c in r["s"]], r["f"]))[2:8]
    for result in both_engines(segment, query):
        assert result.selection.columns == ("n", "s", "f")
        response = reduce_server_results(
            query, [combine_segment_results(query, [result, result])])
        assert response.table.columns == ("n",)
        assert rows_of(query, result) == [(r["n"],) for r in want]


def test_order_by_an_unknown_column_is_a_planning_error(segment):
    query = q("SELECT n FROM t ORDER BY nope LIMIT 3")
    for vectorized in (True, False):
        with pytest.raises(PlanningError, match="nope"):
            execute_segment(segment, query, vectorized=vectorized)
