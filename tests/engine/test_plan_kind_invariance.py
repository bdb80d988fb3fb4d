"""Property: which plan kind answers a query is invisible.

One set of rows is built three ways — plain, with a star-tree, with a
timestamp index — and hypothesis generates aggregation queries over it
(the six functions a pre-aggregated source can serve, plus
DISTINCTCOUNT / PERCENTILE which always need the raw rows; an optional
GROUP BY on a dimension, the time column or a ``timebucket``; a
top-level AND of leaves whose literals are ints, floats and strings
whatever the column's type). Whichever of METADATA / TIME_INDEX /
STAR_TREE / SCAN the planner picks for a segment must return the
partial states of the SCAN plan with every ``allow_*`` flag off, and of
the scalar oracle — and must raise the same error type when they raise.

``m`` is integer-valued, so sums over it are exact in any order and its
states must be *equal*. ``f`` is a double: pre-aggregated sums add in
another order than a scan, so its queries compare final rows to 1e-9
relative.

(ROADMAP F(1), the plan-kind slice of layout invariance.)
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_plan, execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.planner import PlanKind, plan_segment
from repro.errors import PinotError, PlanningError
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.startree.builder import StarTreeConfig

FIRST_DAY = 100
NUM_DAYS = 8

CONFIGS = {
    "plain": SegmentConfig(),
    "star": SegmentConfig(star_tree=StarTreeConfig(
        dimensions=("a", "code", "n", "day"), max_leaf_records=8)),
    "timeindex": SegmentConfig(timestamp_index=(1, 2)),
}


@pytest.fixture(scope="module")
def segments():
    schema = Schema("t", [
        dimension("a"), dimension("code"), dimension("n", DataType.LONG),
        metric("m", DataType.LONG), metric("f", DataType.DOUBLE),
        time_column("day", DataType.INT),
    ])
    rng = random.Random(41)
    records = [
        {"a": rng.choice("uvw"), "code": str(rng.randint(0, 11)),
         "n": rng.randint(0, 6), "m": rng.randint(0, 50),
         "f": round(rng.random() * 10, 3),
         "day": FIRST_DAY + rng.randrange(NUM_DAYS)}
        for __ in range(400)
    ]
    built = {}
    for name, config in CONFIGS.items():
        builder = SegmentBuilder(f"seg_{name}", "t", schema, config)
        builder.add_all(records)
        built[name] = builder.build()
    return built


# -- query generation ---------------------------------------------------------

ROLLUP_FUNCS = ["count(*)", "sum({c})", "min({c})", "max({c})", "avg({c})",
                "minmaxrange({c})"]
RAW_ONLY_FUNCS = ["distinctcount(code)", "percentile90({c})"]

days = st.integers(FIRST_DAY - 1, FIRST_DAY + NUM_DAYS)
small = st.integers(0, 7)
compare_ops = st.sampled_from(["=", "<", "<=", ">", ">="])

leaves = st.one_of(
    st.sampled_from("uvwz").map(lambda v: f"a = '{v}'"),
    st.sampled_from("uvw").map(lambda v: f"a != '{v}'"),  # no star-tree
    # STRING dimension against int / float / str literals.
    st.tuples(compare_ops, small).map(lambda t: f"code {t[0]} {t[1]}"),
    st.tuples(small, small).map(lambda t: f"code IN ({t[0]}, '{t[1]}')"),
    small.map(lambda v: f"code < {v}.5"),
    # LONG dimension against int / float / str literals.
    st.tuples(compare_ops, small).map(lambda t: f"n {t[0]} {t[1]}"),
    st.tuples(compare_ops, small).map(lambda t: f"n {t[0]} {t[1]}.0"),
    st.tuples(small, small).map(lambda t: f"n IN ({t[0]}, {t[1]}.0)"),
    small.map(lambda v: f"n BETWEEN {v}.5 AND {v + 2}.5"),
    small.map(lambda v: f"n = '{v}'"),  # a PlanningError on every path
    # Time column: aligned and unaligned bounds, a float, a string.
    st.tuples(compare_ops, days).map(lambda t: f"day {t[0]} {t[1]}"),
    st.tuples(days, st.integers(0, 4)).map(
        lambda t: f"day BETWEEN {t[0]} AND {t[0] + t[1]}"),
    days.map(lambda v: f"day < {v}.5"),
    days.map(lambda v: f"day >= '{v}'"),
)

group_bys = st.sampled_from(["", "", "a", "n", "code", "a, n", "day",
                             "timebucket(day, 2)", "timebucket(day, 3)"])


@st.composite
def queries(draw):
    column = draw(st.sampled_from(["m", "f"]))
    funcs = draw(st.lists(
        st.sampled_from(ROLLUP_FUNCS * 3 + RAW_ONLY_FUNCS),
        min_size=1, max_size=3, unique=True))
    text = "SELECT " + ", ".join(f.format(c=column) for f in funcs) + " FROM t"
    where = draw(st.lists(leaves, max_size=3))
    if where:
        text += " WHERE " + " AND ".join(where)
    group = draw(group_bys)
    if group:
        text += f" GROUP BY {group} TOP 1000"
    return text, column == "m"


# -- the three ways to run one query on one segment ---------------------------


def outcome(run):
    """The result of ``run()``, or the type of the error it raised."""
    try:
        return run()
    except PinotError as error:
        return type(error)


def states_of(query, result):
    if isinstance(result, type):
        return result
    if result.group_by is not None:
        return result.group_by.groups(query.aggregations)
    return result.aggregation.states


def rows_of(query, result):
    server = combine_segment_results(query, [result])
    return sorted(reduce_server_results(query, [server]).rows, key=repr)


def close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


def check_invariance(segment, text, exact):
    query = optimize(parse(text))
    picked = outcome(lambda: execute_segment(segment, query))
    scanned = outcome(lambda: execute_plan(plan_segment(
        segment, query, allow_star_tree=False, allow_metadata_only=False,
        allow_time_index=False)))
    oracle = outcome(lambda: execute_segment(segment, query,
                                             vectorized=False))
    context = (segment.name, text)
    ways = (picked, scanned, oracle)
    if exact or any(isinstance(way, type) for way in ways):
        assert states_of(query, picked) == states_of(query, scanned), context
        assert states_of(query, picked) == states_of(query, oracle), context
        return
    want = rows_of(query, scanned)
    for got in (rows_of(query, picked), rows_of(query, oracle)):
        assert len(got) == len(want), context
        for got_row, want_row in zip(got, want):
            assert all(map(close, got_row, want_row)), context


@settings(max_examples=120, deadline=None)
@given(queries())
def test_plan_kind_is_invisible(segments, query):
    text, exact = query
    for segment in segments.values():
        check_invariance(segment, text, exact)


# -- pinned: every pre-aggregated kind is really picked, and held to the
# -- same comparison (cheap, deterministic, the property is not vacuous) ----

PINNED = [
    ("plain", PlanKind.METADATA, "SELECT count(*), min(m), max(f) FROM t"),
    ("plain", PlanKind.METADATA, "SELECT minmaxrange(m) FROM t"),
    ("plain", PlanKind.SCAN, "SELECT sum(m) FROM t"),
    ("timeindex", PlanKind.TIME_INDEX,
     "SELECT count(*), sum(m), avg(m) FROM t GROUP BY day TOP 100"),
    ("timeindex", PlanKind.TIME_INDEX,
     "SELECT minmaxrange(f), max(m) FROM t WHERE day >= 102 "
     "GROUP BY timebucket(day, 2) TOP 100"),
    ("timeindex", PlanKind.TIME_INDEX,
     "SELECT sum(f), min(f) FROM t WHERE day BETWEEN 102 AND 105"),
    ("timeindex", PlanKind.TIME_INDEX,
     "SELECT avg(m) FROM t WHERE day > 200"),
    ("timeindex", PlanKind.SCAN, "SELECT sum(m) FROM t WHERE day < 103.5"),
    ("star", PlanKind.STAR_TREE,
     "SELECT count(*), sum(m) FROM t WHERE code = 5"),
    ("star", PlanKind.STAR_TREE,
     "SELECT sum(m), avg(m) FROM t WHERE code IN (5, '6') AND n >= 2.0 "
     "GROUP BY a TOP 100"),
    ("star", PlanKind.STAR_TREE,
     "SELECT minmaxrange(m), min(f) FROM t WHERE n BETWEEN 1.5 AND 3.5 "
     "GROUP BY a, n TOP 100"),
    ("star", PlanKind.STAR_TREE,
     "SELECT avg(f), max(m) FROM t WHERE a = 'z' GROUP BY day TOP 100"),
    ("star", PlanKind.STAR_TREE,
     "SELECT min(m) FROM t WHERE code > 5 AND code < 3"),
    ("star", PlanKind.SCAN,
     "SELECT distinctcount(code) FROM t WHERE a = 'u'"),
    ("star", PlanKind.SCAN, "SELECT sum(m) FROM t WHERE a != 'u'"),
]


@pytest.mark.parametrize("name,kind,text", PINNED)
def test_pinned_plan_kinds(segments, name, kind, text):
    segment = segments[name]
    assert plan_segment(segment, optimize(parse(text))).kind is kind
    check_invariance(segment, text, exact="(f)" not in text)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_string_literal_on_numeric_column_is_a_planning_error(segments, name):
    query = optimize(parse("SELECT count(*) FROM t WHERE n = '3' AND a = 'u'"))
    with pytest.raises(PlanningError):
        execute_segment(segments[name], query)


# -- numeric aggregates over a STRING column: one typed refusal ---------------

NUMERIC_ONLY = ["sum", "min", "max", "avg", "minmaxrange", "percentile50",
                "percentile99", "percentileest90"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("func", NUMERIC_ONLY)
def test_numeric_aggregate_over_a_string_column_is_a_planning_error(
        segments, name, func):
    """It used to leak ``ValueError`` / ``TypeError`` — after
    concatenating every string of the segment, for SUM."""
    for text in (f"SELECT {func}(a) FROM t",
                 f"SELECT count(*), {func}(code) FROM t WHERE n = 1",
                 f"SELECT {func}(a) FROM t GROUP BY day TOP 5",
                 f"SELECT {func}(code) FROM t WHERE a = 'u' GROUP BY a, n"):
        query = optimize(parse(text))
        for vectorized in (True, False):
            with pytest.raises(PlanningError, match="is STRING"):
                execute_segment(segments[name], query, vectorized=vectorized)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_counting_aggregates_still_take_string_columns(segments, name):
    for text in ("SELECT count(*), distinctcount(code) FROM t",
                 "SELECT distinctcounthll(a), distinctcount(a) FROM t "
                 "GROUP BY day TOP 100"):
        check_invariance(segments[name], text, exact=True)
