"""Property: planning compiled once and bound per segment is planning
from scratch per segment.

The server compiles a query once (``compile_query``) and binds that
form to each of its segments (``plan_segment``). This module keeps the
planner as it was before that split — every step redone against each
segment's own dictionaries — as a reference, and holds the two to the
same plan text (``describe()``), the same ``SegmentResult`` and the
same refusal (error type *and* message) for random predicates over
segments with and without sorted, inverted, star-tree and time-index
structures, multi-value columns, a segment built before a column was
added, and one that carries that column only as a virtual column.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.server import ServerInstance
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.aggregates import function_for, served_by_rollup
from repro.engine.executor import execute_plan, execute_segment
from repro.engine.operators import (
    AndFilter,
    FilterPlan,
    InvertedFilter,
    MatchAllFilter,
    MatchNoneFilter,
    OrFilter,
    ScanFilter,
    SortedRangeFilter,
)
from repro.engine.planner import (
    PlanKind,
    SegmentPlan,
    bucket_rollup,
    compile_query,
    metadata_rollup,
    plan_segment,
)
from repro.engine.predicates import IdMatch
from repro.errors import ExecutionError, PinotError, PlanningError
from repro.pql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    In,
    Like,
    Not,
    Or,
    TimeBucket,
)
from repro.pql.parser import parse
from repro.pql.rewriter import normalize_predicate, optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.startree.builder import StarTreeConfig
from repro.startree.query import _records

# -- the reference: every step against the segment's own dictionaries -------


def ref_plan_segment(segment, query):
    ref_validate(segment, query)
    if ref_metadata_only(segment, query):
        return SegmentPlan(PlanKind.METADATA, segment, query,
                           notes=["answered from segment metadata"])
    if segment.time_index is not None:
        plan = ref_plan_time_index(segment, query)
        if plan is not None:
            return plan
    if segment.star_tree is not None:
        constraints = ref_star_constraints(segment, query)
        if constraints is not None:
            return SegmentPlan(PlanKind.STAR_TREE, segment, query,
                               notes=["star-tree pre-aggregation"],
                               star_constraints=constraints)
    root = None
    if query.where is not None:
        root = ref_filter(segment, query.where)
    return SegmentPlan(PlanKind.SCAN, segment, query,
                       FilterPlan(root, segment.num_docs), True)


def ref_validate(segment, query):
    missing = [column for column in query.referenced_columns()
               if not segment.has_column(column)]
    if missing:
        raise PlanningError(f"segment {segment.name!r} is missing columns "
                            f"{missing} referenced by the query")
    for aggregation in query.aggregations:
        func = function_for(aggregation)
        if not func.needs_values:
            continue
        column = segment.column(aggregation.column)
        if column.is_multi_value:
            raise ExecutionError(f"cannot aggregate over multi-value column "
                                 f"{aggregation.column!r}")
        if func.numeric_only and column.dictionary.dtype is DataType.STRING:
            raise PlanningError(f"{aggregation} needs a numeric column; "
                                f"{aggregation.column!r} is STRING")


def ref_metadata_only(segment, query):
    if query.where is not None or query.group_by or not query.is_aggregation:
        return False
    if query.projections:
        return False
    return all(served_by_rollup(a, metadata_rollup(segment, a.column))
               for a in query.aggregations)


def ref_plan_time_index(segment, query):
    index = segment.time_index
    time = index.time_column
    if not query.is_aggregation or query.projections:
        return None
    bucket_size = None
    if query.group_by:
        if len(query.group_by) != 1:
            return None
        entry = query.group_by[0]
        if isinstance(entry, TimeBucket):
            if entry.column != time:
                return None
            bucket_size = entry.size
        elif entry == time:
            bucket_size = 1
        else:
            return None
    low = high = None
    if query.where is not None:
        bounds = ref_time_range(query.where, time)
        if bounds is None:
            return None
        low, high = bounds
        min_time, max_time = segment.time_range()
        if low is not None and low <= min_time:
            low = None
        if high is not None and high >= max_time:
            high = None
    rollup = index.rollup_for(bucket_size, low, high)
    if rollup is None or not all(
            served_by_rollup(a, bucket_rollup(rollup, a.column))
            for a in query.aggregations):
        return None
    return SegmentPlan(PlanKind.TIME_INDEX, segment, query,
                       notes=[f"timestamp-index rollup g={rollup.granularity}"],
                       time_rollup=rollup, time_low=low, time_high=high,
                       time_bucket_size=bucket_size)


def ref_time_range(predicate, time):
    if isinstance(predicate, And):
        low = high = None
        for child in predicate.children:
            bounds = ref_time_range(child, time)
            if bounds is None:
                return None
            if bounds[0] is not None:
                low = bounds[0] if low is None else max(low, bounds[0])
            if bounds[1] is not None:
                high = bounds[1] if high is None else min(high, bounds[1])
        return low, high
    if getattr(predicate, "column", None) != time:
        return None
    if isinstance(predicate, Between):
        if type(predicate.low) is int and type(predicate.high) is int:
            return predicate.low, predicate.high
    elif isinstance(predicate, Comparison) and type(predicate.value) is int:
        value = predicate.value
        return {CompareOp.EQ: (value, value), CompareOp.GT: (value + 1, None),
                CompareOp.GTE: (value, None), CompareOp.LT: (None, value - 1),
                CompareOp.LTE: (None, value)}.get(predicate.op)
    return None


def ref_star_constraints(segment, query):
    tree = segment.star_tree
    if not query.is_aggregation:
        return None
    if not all(served_by_rollup(a, _records(tree, a.column))
               for a in query.aggregations):
        return None
    if any(column not in tree.dimensions for column in query.group_by):
        return None
    constraints = []
    if query.where is None:
        return constraints
    where = query.where
    for leaf in where.children if isinstance(where, And) else (where,):
        if isinstance(leaf, Comparison):
            positive = leaf.op is not CompareOp.NEQ
        elif isinstance(leaf, In):
            positive = not leaf.negated
        else:
            positive = isinstance(leaf, Between)
        if not (positive and leaf.column in tree.dimensions):
            return None
        constraints.append((tree.dimension_index(leaf.column),
                            ref_leaf_match(leaf, segment.column(leaf.column))))
    return constraints


def ref_filter(segment, predicate):
    if isinstance(predicate, (And, Or)):
        children = [ref_filter(segment, child)
                    for child in predicate.children]
        if isinstance(predicate, And):
            if any(isinstance(c, MatchNoneFilter) for c in children):
                children = [MatchNoneFilter()]
            children = ([c for c in children
                         if not isinstance(c, MatchAllFilter)]
                        or [MatchAllFilter(segment.num_docs)])
        else:
            if any(isinstance(c, MatchAllFilter) for c in children):
                children = [MatchAllFilter(segment.num_docs)]
            children = ([c for c in children
                         if not isinstance(c, MatchNoneFilter)]
                        or [MatchNoneFilter()])
        if len(children) == 1:
            return children[0]
        if isinstance(predicate, Or):
            return OrFilter(children)
        children.sort(key=lambda op: op.cost())
        return AndFilter(children)
    if isinstance(predicate, Not):
        return ref_filter(segment, normalize_predicate(predicate))
    column = segment.column(predicate.column)
    match = ref_leaf_match(predicate, column)
    if match.is_empty:
        return MatchNoneFilter()
    if match.is_all and not column.is_multi_value:
        return MatchAllFilter(segment.num_docs)
    if column.is_sorted:
        return SortedRangeFilter(column, match)
    if column.inverted is not None:
        return InvertedFilter(column, match)
    return ScanFilter(column, match)


def ref_leaf_match(predicate, column):
    dictionary = column.dictionary
    card = dictionary.cardinality
    values = dictionary.to_list()

    def coerce(value):
        if dictionary.dtype is DataType.STRING:
            return value if isinstance(value, str) else str(value)
        if isinstance(value, str):
            raise PlanningError(f"cannot compare string literal {value!r} "
                                "against numeric column")
        return value

    def ids(test):
        return [i for i, value in enumerate(values) if test(value)]

    negated = False
    if isinstance(predicate, Comparison):
        value = coerce(predicate.value)
        test = {CompareOp.EQ: lambda v: v == value,
                CompareOp.NEQ: lambda v: v != value,
                CompareOp.LT: lambda v: v < value,
                CompareOp.LTE: lambda v: v <= value,
                CompareOp.GT: lambda v: v > value,
                CompareOp.GTE: lambda v: v >= value}[predicate.op]
    elif isinstance(predicate, Between):
        low, high = coerce(predicate.low), coerce(predicate.high)
        test = lambda v: low <= v <= high  # noqa: E731
    elif isinstance(predicate, In):
        members = [coerce(value) for value in predicate.values]
        test = lambda v: v in members  # noqa: E731
        negated = predicate.negated
    elif isinstance(predicate, Like):
        if dictionary.dtype is not DataType.STRING:
            raise PlanningError(f"LIKE requires a string column, "
                                f"{predicate.column!r} is "
                                f"{dictionary.dtype.value}")
        pattern = re.compile(predicate.to_regex())
        test = lambda v: pattern.fullmatch(v) is not None  # noqa: E731
        negated = predicate.negated
    else:
        raise PlanningError(f"not a leaf predicate: {predicate!r}")
    matched = set(ids(test))
    if negated:
        matched = set(range(card)) - matched
    ranges = []
    for dict_id in sorted(matched):
        if ranges and ranges[-1][1] == dict_id:
            ranges[-1] = (ranges[-1][0], dict_id + 1)
        else:
            ranges.append((dict_id, dict_id + 1))
    return IdMatch(tuple(ranges), card)


# -- segments -----------------------------------------------------------------

OLD = Schema("t", [
    dimension("a"), dimension("code"), dimension("n", DataType.LONG),
    dimension("tags", multi_value=True), metric("m", DataType.LONG),
    time_column("day", DataType.INT),
])
X = dimension("x", DataType.LONG)
NEW = OLD.with_column(X)
FIRST_DAY = 100

CONFIGS = {
    "plain": SegmentConfig(),
    "sorted": SegmentConfig(sorted_column="n"),
    "inverted": SegmentConfig(inverted_columns=("a", "code", "tags")),
    "star": SegmentConfig(star_tree=StarTreeConfig(
        dimensions=("a", "code", "n", "day"), max_leaf_records=8)),
    "timeindex": SegmentConfig(timestamp_index=(1, 2)),
}


def build(name, schema, config, seed):
    rng = random.Random(seed)
    builder = SegmentBuilder(name, "t", schema, config)
    for __ in range(120):
        record = {
            "a": rng.choice("uvw"), "code": str(rng.randint(0, 9)),
            "n": rng.randint(0, 6),
            "tags": rng.sample(["t0", "t1", "t2", "t3"], rng.randint(1, 3)),
            "m": rng.randint(0, 40), "day": FIRST_DAY + rng.randrange(6),
        }
        if "x" in schema:
            record["x"] = rng.randint(0, 3)
        builder.add(record)
    return builder.build()


@pytest.fixture(scope="module")
def segments():
    built = [build(f"new_{name}", NEW, config, seed)
             for seed, (name, config) in enumerate(CONFIGS.items())]
    # Built before ``x`` was added: it lacks the column outright.
    built.append(build("old_plain", OLD, SegmentConfig(), 11))
    # ... and as a server exposes it after the column is added: a
    # default-valued virtual column, listed by the segment's schema.
    evolved = build("old_evolved", OLD, CONFIGS["inverted"], 12)
    ServerInstance._add_virtual_column(evolved, X)
    built.append(evolved)
    # A virtual column its schema does not list.
    unlisted = build("old_unlisted", OLD, CONFIGS["sorted"], 13)
    ServerInstance._add_virtual_column(unlisted, X)
    unlisted.schema = OLD
    built.append(unlisted)
    return built


# -- queries ------------------------------------------------------------------

small = st.integers(0, 7)
ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
leaves = st.one_of(
    st.tuples(ops, st.sampled_from("uvwz")).map(
        lambda t: f"a {t[0]} '{t[1]}'"),
    st.sampled_from(["a IN ('u', 'z')", "a NOT IN ('v')", "a LIKE 'u%'",
                     "a NOT LIKE '%w'", "code LIKE '1%'"]),
    # STRING column against numeric literals.
    st.tuples(ops, small).map(lambda t: f"code {t[0]} {t[1]}"),
    st.tuples(small, small).map(lambda t: f"code IN ({t[0]}, '{t[1]}')"),
    st.tuples(small, small).map(lambda t: f"code NOT IN ({t[0]}, {t[1]})"),
    small.map(lambda v: f"code BETWEEN {v} AND {v + 3}"),
    # LONG columns: int / float literals, and refusals.
    st.tuples(ops, small).map(lambda t: f"n {t[0]} {t[1]}"),
    small.map(lambda v: f"n < {v}.5"),
    st.tuples(small, small).map(lambda t: f"n IN ({t[0]}, {t[1]}.0)"),
    small.map(lambda v: f"n BETWEEN {v}.5 AND {v + 2}"),
    st.sampled_from(["n = 'three'", "n LIKE '1%'"]),
    # Multi-value column.
    st.sampled_from(["tags = 't1'", "tags != 't2'", "tags IN ('t0', 't3')",
                     "tags NOT IN ('t1')", "tags LIKE 't%'"]),
    # Time column and the column only some segments have.
    st.tuples(ops, st.integers(FIRST_DAY - 1, FIRST_DAY + 6)).map(
        lambda t: f"day {t[0]} {t[1]}"),
    st.integers(FIRST_DAY, FIRST_DAY + 5).map(
        lambda v: f"day BETWEEN {v} AND {v + 1}"),
    st.tuples(ops, st.integers(0, 3)).map(lambda t: f"x {t[0]} {t[1]}"),
)


@st.composite
def predicates(draw, depth=0):
    kind = draw(st.sampled_from(["leaf", "leaf", "and", "or", "not"]
                                if depth < 2 else ["leaf"]))
    if kind == "leaf":
        return draw(leaves)
    if kind == "not":
        return f"NOT ({draw(predicates(depth + 1))})"
    children = draw(st.lists(predicates(depth + 1), min_size=2, max_size=3))
    return "(" + f" {kind.upper()} ".join(children) + ")"


AGGREGATIONS = ["count(*)", "sum(m)", "min(m), max(day)",
                "avg(m), count(*)", "minmaxrange(m)", "distinctcount(code)",
                "sum(a)", "sum(tags)", "max(x)"]
PROJECTIONS = ["a, n, m", "code, x"]
GROUPS = ["", "", "a", "n", "day", "timebucket(day, 2)", "a, code", "x"]


@st.composite
def queries(draw):
    select = draw(st.sampled_from(AGGREGATIONS + PROJECTIONS))
    text = f"SELECT {select} FROM t"
    if draw(st.booleans()):
        text += " WHERE " + draw(predicates())
    is_selection = select in PROJECTIONS
    group = "" if is_selection else draw(st.sampled_from(GROUPS))
    if group:
        text += f" GROUP BY {group} TOP 100"
    if is_selection:
        text += " LIMIT 1000"
    # Raw queries keep NOT for the planner to push down itself.
    return text, draw(st.booleans())


# -- the property -------------------------------------------------------------


def outcome(run):
    try:
        return run()
    except PinotError as error:
        return type(error), str(error)


def result_view(query, result):
    if isinstance(result, tuple):
        return result
    if result.selection is not None:
        part = sorted(result.selection.rows(), key=repr)
    elif result.group_by is not None:
        part = result.group_by.groups(query.aggregations)
    else:
        part = result.aggregation.states
    return part, result.stats


def check(segments, text, raw):
    query = parse(text) if raw else optimize(parse(text))
    forms = [compile_query(query, schema) for schema in (NEW, OLD)]
    for segment in segments:
        want = outcome(lambda: ref_plan_segment(segment, query))
        want_result = outcome(lambda: execute_plan(want)
                              if isinstance(want, SegmentPlan) else want)
        for form in forms:
            got = outcome(lambda: plan_segment(segment, form))
            context = (segment.name, text, form.schema is NEW)
            if isinstance(want, tuple):
                assert got == want, context
                continue
            assert not isinstance(got, tuple), (context, got)
            assert got.describe() == want.describe(), context
            got_result = outcome(lambda: execute_plan(got))
            assert (result_view(query, got_result)
                    == result_view(query, want_result)), context
            # The server's way in: the compiled form through the executor.
            assert (result_view(query, outcome(
                lambda: execute_segment(segment, form)))
                == result_view(query, want_result)), context


@settings(max_examples=150, deadline=None)
@given(queries())
def test_bound_plan_is_the_per_segment_plan(segments, query):
    check(segments, *query)


PINNED = [
    "SELECT count(*) FROM t",
    "SELECT sum(m) FROM t WHERE a = 'u' AND n >= 2 GROUP BY code TOP 100",
    "SELECT count(*) FROM t WHERE code IN (1, '2') AND day BETWEEN 101 "
    "AND 103",
    "SELECT sum(m) FROM t WHERE day >= 102 GROUP BY timebucket(day, 2) "
    "TOP 100",
    "SELECT max(x) FROM t WHERE x > 0",
    "SELECT code, x FROM t WHERE NOT (a = 'u' OR tags = 't1') LIMIT 1000",
    "SELECT count(*) FROM t WHERE n = 'three' AND x = 1",
    "SELECT sum(tags) FROM t WHERE n LIKE '1%'",
]


@pytest.mark.parametrize("text", PINNED)
@pytest.mark.parametrize("raw", [False, True])
def test_pinned_queries(segments, text, raw):
    check(segments, text, raw)


def test_every_plan_kind_and_refusal_is_reached(segments):
    """The property is not vacuous: the segment set exercises every plan
    kind, a missing column and the unlisted virtual column."""
    kinds = set()
    for text in PINNED:
        query = optimize(parse(text))
        form = compile_query(query, NEW)
        for segment in segments:
            plan = outcome(lambda: plan_segment(segment, form))
            kinds.add(plan[0] if isinstance(plan, tuple) else plan.kind)
    assert kinds >= {PlanKind.METADATA, PlanKind.TIME_INDEX,
                     PlanKind.STAR_TREE, PlanKind.SCAN, PlanningError,
                     ExecutionError}
    query = optimize(parse("SELECT max(x) FROM t"))
    old_plain, evolved, unlisted = segments[-3:]
    assert "missing columns ['x']" in outcome(
        lambda: plan_segment(old_plain, compile_query(query, NEW)))[1]
    for segment in (evolved, unlisted):
        assert plan_segment(segment, compile_query(query, NEW)).kind is (
            PlanKind.METADATA)
