"""Merging never writes into its inputs.

A server's partial cache (``repro.cache.partials``) hands one stored
``SegmentResult`` to every later query of the same text, so the
server's combine, the broker's reduce and the codec must leave every
partial they read exactly as it was. Partials are drawn from real
segment executions: aggregations (HLL and quantile states included),
group-bys on integer and STRING keys (one filled partial among empty
ones takes ``_merge_group_by``'s single-partial shortcut) and
selections. The same merges must also run on partials whose arrays
were made read-only, as a cached partial's are, and give the same
answer.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.partials import _freeze
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.net import encode
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder

SCHEMA = Schema("t", [
    dimension("s"), dimension("n", DataType.LONG),
    dimension("tags", DataType.STRING, multi_value=True),
    metric("m", DataType.LONG), metric("f", DataType.DOUBLE),
    time_column("day", DataType.INT),
])
AGGREGATES = ("count(*), sum(m), avg(f), minmaxrange(m), distinctcount(s), "
              "distinctcounthll(n), percentile90(m), percentileest90(f)")
SHAPES = (
    f"SELECT {AGGREGATES} FROM t{{where}}",
    f"SELECT {AGGREGATES} FROM t{{where}} GROUP BY n TOP 10",
    f"SELECT {AGGREGATES} FROM t{{where}} GROUP BY s TOP 10",
    "SELECT sum(f), distinctcount(n) FROM t{where} GROUP BY s, n TOP 10",
    "SELECT count(*) FROM t{where} GROUP BY tags TOP 10",
    "SELECT s, n, f FROM t{where} ORDER BY f DESC, s LIMIT 6",
    "SELECT s, tags FROM t{where} LIMIT 4",
    "SELECT * FROM t{where} ORDER BY n LIMIT 2, 3",
)
WHERES = ("", " WHERE n < 3", " WHERE s = 'a'", " WHERE m > 1000")

rows = st.fixed_dictionaries({
    "s": st.sampled_from("abcd"), "n": st.integers(0, 5),
    "tags": st.lists(st.sampled_from("xyz"), max_size=2, unique=True),
    "m": st.integers(0, 99), "f": st.integers(0, 70).map(lambda i: i / 7),
    "day": st.integers(100, 103),
})


def build(name, records):
    builder = SegmentBuilder(name, "t", SCHEMA)
    builder.add_all(records)
    return builder.build()


def snapshot(value):
    """Every array, sketch and block reachable from ``value``, spelled
    out (dtype and bytes for an array) for an exact before/after
    comparison."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape,
                value.tolist() if value.dtype.kind == "O"
                else value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [snapshot(v) for v in value])
    fields = getattr(value, "__dict__", None)
    if fields is None and hasattr(type(value), "__slots__"):  # a sketch
        fields = {name: getattr(value, name)
                  for name in type(value).__slots__}
    if fields is not None:
        return (type(value).__name__,
                {k: snapshot(v) for k, v in fields.items()})
    if isinstance(value, float):
        return value.hex()
    return value


@st.composite
def cases(draw):
    query = optimize(parse(draw(st.sampled_from(SHAPES)).format(
        where=draw(st.sampled_from(WHERES)))))
    servers = draw(st.lists(
        st.lists(st.lists(rows, min_size=1, max_size=12),
                 min_size=1, max_size=3),
        min_size=1, max_size=3))
    return query, [
        [execute_segment(build(f"seg{i}_{j}", records), query)
         for j, records in enumerate(segments)]
        for i, segments in enumerate(servers)
    ]


def merge_everything(query, servers):
    """Combine each server's partials, encode each server result as
    the transport does, then reduce them all at the broker."""
    combined = [combine_segment_results(query, results, f"server{i}")
                for i, results in enumerate(servers)]
    for result in combined:
        encode(result)
    for results in servers:
        for result in results:
            encode(result)
    return reduce_server_results(query, combined), combined


@settings(max_examples=60, deadline=None)
@given(cases())
def test_combine_reduce_and_encode_leave_their_inputs(case):
    query, servers = case
    before = snapshot(servers)
    response, combined = merge_everything(query, servers)
    assert snapshot(servers) == before
    # The broker's reduce must not write into the combined results
    # either (an in-process caller may hold them).
    combined_before = snapshot(combined)
    reduce_server_results(query, combined)
    assert snapshot(combined) == combined_before

    frozen = copy.deepcopy(servers)
    for results in frozen:
        for result in results:
            _freeze(result)
    frozen_response, __ = merge_everything(query, frozen)
    assert frozen_response.rows == response.rows
    assert frozen_response.stats == response.stats


def test_single_filled_group_by_partial_is_passed_through():
    """One filled grouped partial among empty ones is the combine's
    answer as it is — the shortcut that makes the server result share
    a cached partial's block, which then must not be written to."""
    query = optimize(parse("SELECT sum(m) FROM t WHERE s = 'a' "
                           "GROUP BY n TOP 10"))
    filled = execute_segment(build("a", [
        {"s": "a", "n": 1, "tags": [], "m": 3, "f": 0.5, "day": 100}]),
        query)
    empty = execute_segment(build("b", [
        {"s": "b", "n": 2, "tags": [], "m": 4, "f": 0.5, "day": 100}]),
        query)
    _freeze(filled)
    combined = combine_segment_results(query, [empty, filled])
    assert combined.group_by is filled.group_by
    assert not filled.group_by.keys[0].flags.writeable
    assert reduce_server_results(query, [combined]).rows == [(1, 3.0)]
