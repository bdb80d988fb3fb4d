"""The exact DISTINCTCOUNT state: a sorted array of distinct values.

A segment's state is its distinct values, ascending, as a 1-D array
whose dtype the column fixes (int64 for INT / LONG, float64 for FLOAT /
DOUBLE, bool, object for STRING); the empty state is a zero-length
array. The vectorized engine builds it by sorting, the scalar oracle
from a Python set, and every merge level merges all its states at once.
These properties hold it to that:

* both engines give the same states — dtype and values — grouped and
  ungrouped, on every column type, on segments where nothing matches
  and through servers whose segments were all pruned, and the broker's
  count is the size of the union of the matching values;
* every function's ``merge_many`` is the left fold of ``merge`` from
  ``init_empty``, bit for bit;
* states cross the codec unchanged, with and without JSON text.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.aggregates import (
    DISTINCT_SET_MAX,
    _FUNCTIONS,
    distinct_dtype,
    function_for,
)
from repro.engine.executor import execute_segment, prune_result
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.results import AggregationPartial, GroupByPartial, ServerResult
from repro.net import decode, encode, json_roundtrip
from repro.pql.ast_nodes import AggFunc
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder
from tests.states import exact_states

COLUMNS = {"i": DataType.INT, "l": DataType.LONG, "f": DataType.FLOAT,
           "d": DataType.DOUBLE, "s": DataType.STRING, "b": DataType.BOOLEAN}
SCHEMA = Schema("t", [dimension(name, dtype) for name, dtype in COLUMNS.items()]
                + [metric("g", DataType.LONG), time_column("day", DataType.INT)])
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf]
VALUES = {
    "i": st.integers(-40, 40) | st.sampled_from([-2 ** 31, 2 ** 31 - 1]),
    "l": st.integers(-40, 40) | st.sampled_from([-2 ** 63, 2 ** 63 - 1]),
    # width=32: every value is one a FLOAT column stores exactly.
    "f": st.floats(allow_nan=False, width=32) | st.sampled_from(SPECIAL_FLOATS),
    "d": st.floats(allow_nan=False, width=32) | st.sampled_from(SPECIAL_FLOATS),
    "s": st.sampled_from(["", "a", "b", "ab", "ba", "é", "null"]),
    "b": st.booleans(),
}
records = st.fixed_dictionaries(
    {**VALUES, "g": st.integers(0, 3), "day": st.integers(100, 103)})
#: Up to 60 rows: a segment's values and the merges of several states
#: cross ``DISTINCT_SET_MAX``, so both ways of building a state run.
segments = st.lists(st.lists(records, min_size=1, max_size=60),
                    min_size=1, max_size=4)
WHERES = ["", " WHERE g >= 2", " WHERE day > 200"]  # all, some, none


def build(rows_per_segment):
    built = []
    for i, rows in enumerate(rows_per_segment):
        builder = SegmentBuilder(f"t_{i}", "t", SCHEMA)
        builder.add_all(rows)
        built.append(builder.build())
    return built


def text(column, where, grouped):
    group = " GROUP BY g TOP 1000" if grouped else ""
    return f"SELECT distinctcount({column}) FROM t{where}{group}"


def states_of(query, result):
    if query.group_by:
        return (result.group_by or GroupByPartial()).groups(query.aggregations)
    return result.aggregation.states


def matches(where, row):
    return {"": True, " WHERE g >= 2": row["g"] >= 2,
            " WHERE day > 200": row["day"] > 200}[where]


@settings(max_examples=60, deadline=None)
@given(segments, st.sampled_from(sorted(COLUMNS)), st.sampled_from(WHERES),
       st.booleans(), st.integers(1, 3), st.integers(0, 2))
def test_both_engines_build_and_merge_the_same_states(
        rows_per_segment, column, where, grouped, num_servers, pruned):
    query = optimize(parse(text(column, where, grouped)))
    built = build(rows_per_segment)
    want_dtype = distinct_dtype(COLUMNS[column].numpy_dtype)
    servers = {True: [], False: []}
    for vectorized in (True, False):
        per_server = [[] for __ in range(num_servers)]
        for i, segment in enumerate(built):
            # Server ``pruned`` (when it exists) had every segment pruned.
            result = (prune_result(segment, query) if i % num_servers == pruned
                      else execute_segment(segment, query,
                                           vectorized=vectorized))
            per_server[i % num_servers].append(result)
        servers[vectorized] = [
            combine_segment_results(query, results, f"server-{n}")
            for n, results in enumerate(per_server) if results]
    for vectorized_server, scalar_server in zip(*servers.values()):
        assert (exact_states(states_of(query, vectorized_server))
                == exact_states(states_of(query, scalar_server)))
        for states in (states_of(query, vectorized_server).values() if grouped
                       else [states_of(query, vectorized_server)]):
            assert all(s.ndim == 1 for s in states)
            assert all(s.dtype == want_dtype for s in states if len(s))
    for engine_servers in servers.values():
        response = reduce_server_results(query, engine_servers)
        want: dict = {}
        for i, rows in enumerate(rows_per_segment):
            if i % num_servers != pruned:
                for row in rows:
                    if matches(where, row):
                        want.setdefault(row["g"] if grouped else (),
                                        set()).add(row[column])
        if grouped:
            assert sorted(response.rows) == sorted(
                (g, len(values)) for g, values in want.items())
        else:
            assert response.rows == [(len(want.get((), ())),)]


@settings(max_examples=60, deadline=None)
@given(segments, st.sampled_from(sorted(COLUMNS)), st.sampled_from(WHERES),
       st.booleans())
def test_segment_states_are_the_oracles(rows_per_segment, column, where,
                                        grouped):
    query = optimize(parse(text(column, where, grouped)))
    for segment in build(rows_per_segment):
        vectorized = execute_segment(segment, query)
        scalar = execute_segment(segment, query, vectorized=False)
        assert (exact_states(states_of(query, vectorized))
                == exact_states(states_of(query, scalar)))


def bits(state):
    """A state's codec tree as JSON text: floats by ``repr`` (so 0.0 and
    -0.0 differ), arrays with their dtype."""
    return json.dumps(encode(state), sort_keys=True)


# Sevenths are inexact, so a sum depends on the order it is taken in;
# the zeros and infinities are where a distinct state's bits could.
floats = (st.integers(-10 ** 6, 10 ** 6).map(lambda i: i / 7)
          | st.sampled_from(SPECIAL_FLOATS))
chunks = st.lists(st.lists(floats, max_size=3 * DISTINCT_SET_MAX),
                  min_size=1, max_size=5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@settings(max_examples=80, deadline=None)
@given(chunks)
def test_merge_many_is_the_left_fold_bit_for_bit(value_chunks):
    for func in sorted(_FUNCTIONS, key=lambda f: f.value):
        f = _FUNCTIONS[func]
        states = [f.aggregate(np.asarray(chunk, dtype=np.float64))
                  for chunk in value_chunks]
        folded = functools.reduce(f.merge, states, f.init_empty())
        assert bits(f.merge_many(states)) == bits(folded), func


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["i", "s", "b"]), st.data())
def test_distinct_merge_many_is_the_left_fold_on_every_dtype(column, data):
    f = _FUNCTIONS[AggFunc.DISTINCTCOUNT]
    value_chunks = data.draw(st.lists(
        st.lists(VALUES[column], max_size=2 * DISTINCT_SET_MAX),
        min_size=1, max_size=5))
    dtype = distinct_dtype(COLUMNS[column].numpy_dtype)
    states = [f.aggregate(np.asarray(chunk, dtype=dtype))
              for chunk in value_chunks]
    folded = functools.reduce(f.merge, states, f.init_empty())
    merged = f.merge_many(states)
    assert bits(merged) == bits(folded)
    assert merged.tolist() == sorted(set().union(*value_chunks))


STATES = [
    np.asarray([-(2 ** 63), -1, 0, 7, 2 ** 63 - 1]),
    np.asarray([-math.inf, -0.0, 1 / 7, 1e300, math.inf]),
    np.asarray([False, True]),
    np.asarray(["", "a", "é"], dtype=object),
    _FUNCTIONS[AggFunc.DISTINCTCOUNT].init_empty(),
]


@pytest.mark.parametrize("json_text", [False, True])
@pytest.mark.parametrize("state", STATES,
                         ids=["int64", "float64", "bool", "str", "empty"])
def test_distinct_states_cross_the_codec_unchanged(state, json_text):
    query = optimize(parse("SELECT distinctcount(s) FROM t GROUP BY g TOP 9"))
    payloads = [state, ServerResult("s-1", aggregation=AggregationPartial(
        [state])), GroupByPartial([np.asarray([1, 2])], [[state, state[:1]]])]
    for payload in payloads:
        tree = encode(payload)
        back = decode(json_roundtrip(tree) if json_text else tree)
        if isinstance(payload, GroupByPartial):
            got, want = back.groups(query.aggregations), payload.groups(
                query.aggregations)
        elif isinstance(payload, ServerResult):
            got, want = back.aggregation.states, payload.aggregation.states
        else:
            got, want = back, payload
        assert exact_states(got) == exact_states(want)
        assert bits(got) == bits(want)
    assert "fs" not in json.dumps(encode(state))
    assert function_for(query.aggregations[0]).finalize(
        decode(encode(state))) == len(state)
