"""Property-based parity: vectorized batch kernels vs the scalar oracle.

Hypothesis generates random dictionary-encoded datasets and random
queries (AND/OR/NOT trees over =, !=, range, IN, BETWEEN, LIKE leaves
and two-scan-leaf conjunctions; plain and grouped aggregates, one
column under several of them; one to three group columns, multi-value
included), then executes
each query twice per segment configuration — once through the numpy
batch engine and once through the row-at-a-time scalar oracle
(``vectorized=False``) — and requires *exact* equality of the merged
results.

Metric values are integers, so float64 aggregate sums are exact
regardless of summation order and the comparison needs no tolerance:
any mismatch at all is a kernel bug. Edge cases (empty selection,
all-docs selection, empty IN-like matches) fall out of the generators
and are also pinned explicitly at the bottom.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig

D1 = list("abcdef")
D2 = list("xyz")
TAGS = list("pqrst")
N_VALUES = list(range(8))
DAYS = list(range(100, 106))


def make_schema():
    return Schema("t", [
        dimension("d1"), dimension("d2"),
        dimension("n", DataType.LONG),
        dimension("tags", multi_value=True),
        metric("m", DataType.LONG),
        time_column("day", DataType.INT),
    ])


def make_records(seed, size=300):
    rng = random.Random(seed)
    return [
        {"d1": rng.choice(D1), "d2": rng.choice(D2),
         "n": rng.choice(N_VALUES),
         "tags": rng.sample(TAGS, rng.randint(1, 3)),
         "m": rng.randint(0, 50), "day": rng.choice(DAYS)}
        for __ in range(size)
    ]


CONFIGS = {
    "plain": SegmentConfig(),
    "sorted": SegmentConfig(sorted_column="d1"),
    "inverted": SegmentConfig(
        inverted_columns=("d1", "d2", "n", "day", "tags")),
}


@pytest.fixture(scope="module")
def built_segments():
    records = make_records(99)
    schema = make_schema()
    built = {}
    for name, config in CONFIGS.items():
        builder = SegmentBuilder(f"seg_{name}", "t", schema, config)
        builder.add_all(records)
        built[name] = builder.build()
    return built


# -- random query generation --------------------------------------------------

leaf_predicates = st.one_of(
    st.sampled_from(D1).map(lambda v: f"d1 = '{v}'"),
    st.sampled_from(D2).map(lambda v: f"d2 != '{v}'"),
    st.sampled_from(TAGS).map(lambda v: f"tags = '{v}'"),
    st.sampled_from(TAGS).map(lambda v: f"tags != '{v}'"),
    st.tuples(st.sampled_from(N_VALUES),
              st.sampled_from(["<", "<=", ">", ">="])).map(
        lambda t: f"n {t[1]} {t[0]}"),
    st.lists(st.sampled_from(N_VALUES), min_size=1, max_size=3).map(
        lambda vs: f"n IN ({', '.join(map(str, vs))})"),
    st.lists(st.sampled_from(D1), min_size=1, max_size=2).map(
        lambda vs: "d1 NOT IN ({})".format(
            ", ".join(f"'{v}'" for v in vs))),
    st.tuples(st.sampled_from(DAYS), st.integers(0, 3)).map(
        lambda t: f"day BETWEEN {t[0]} AND {t[0] + t[1]}"),
    st.sampled_from(["a%", "%c", "_", "%", "x_z", "zz%"]).map(
        lambda p: f"d1 LIKE '{p}'"),
    # Contradictions / tautologies force empty and all-docs selections.
    st.just("n < 0"),
    st.just("n >= 0"),
)


def join_with(op):
    return lambda parts: f" {op} ".join(f"({p})" for p in parts)


predicate_strings = st.recursive(
    leaf_predicates,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(join_with("AND")),
        st.lists(inner, min_size=2, max_size=3).map(join_with("OR")),
        inner.map(lambda p: f"NOT ({p})"),
    ),
    max_leaves=5,
)

# The benchmark's scan shape: two scan leaves ANDed (on the "plain"
# segment the second one runs inside the first one's mask).
scan_conjunctions = st.tuples(
    st.sampled_from(DAYS), st.integers(0, 5), st.sampled_from(N_VALUES),
    st.sampled_from(["<", "<=", ">", ">="]),
).map(lambda t: f"day BETWEEN {t[0]} AND {t[0] + t[1]} AND n {t[3]} {t[2]}")

select_lists = st.sampled_from([
    "count(*)",
    "sum(m)",
    "count(*), sum(m), min(m), max(m)",
    "avg(m), distinctcount(d1)",
    "minmaxrange(m), percentile95(m)",
    "distinctcounthll(d1), sum(n)",
    # One column under several aggregates: gathered once, shared.
    "max(m), min(m), sum(m)",
    "sum(n), avg(m), max(n), minmaxrange(m), min(n)",
])

group_bys = st.sampled_from(["", "d1", "d2", "d1, n", "day", "tags",
                             "tags, d2", "d1, d2, n", "day, d2, d1",
                             "n, tags, d1"])


@st.composite
def query_texts(draw):
    select = draw(select_lists)
    where = draw(st.one_of(st.none(), predicate_strings,
                           scan_conjunctions))
    group = draw(group_bys)
    text = f"SELECT {select} FROM t"
    if where:
        text += f" WHERE {where}"
    if group:
        text += f" GROUP BY {group} TOP 1000"
    return text


def run_engine(segment, query, vectorized):
    result = execute_segment(segment, query, vectorized=vectorized)
    server = combine_segment_results(query, [result])
    return reduce_server_results(query, [server])


def assert_same_rows(query, fast, slow, context):
    if query.group_by:
        width = len(query.group_by)
        got = {tuple(r[:width]): tuple(r[width:]) for r in fast.rows}
        want = {tuple(r[:width]): tuple(r[width:]) for r in slow.rows}
    else:
        got, want = fast.rows, slow.rows
    assert got == want, context


@settings(max_examples=60, deadline=None)
@given(query_texts())
def test_vectorized_scalar_parity(built_segments, text):
    query = optimize(parse(text))
    for name, segment in built_segments.items():
        fast = run_engine(segment, query, vectorized=True)
        slow = run_engine(segment, query, vectorized=False)
        # Only results must agree; execution stats legitimately differ
        # (the planner answers metadata-only queries without scanning,
        # the oracle always walks every doc).
        assert_same_rows(query, fast, slow, (name, text))


# -- pinned edges (cheap, deterministic, run even with --hypothesis-seed) ---

EDGE_QUERIES = [
    # Empty selection: no doc matches, plain and grouped.
    "SELECT count(*), sum(m), min(m), max(m) FROM t WHERE n < 0",
    "SELECT sum(m) FROM t WHERE n < 0 GROUP BY d1 TOP 10",
    # All docs selected (tautology and no WHERE at all).
    "SELECT count(*), avg(m) FROM t WHERE n >= 0",
    "SELECT distinctcount(d1), percentile50(m) FROM t",
    # Multi-value semantics: = matches any entry; != needs NNF pushdown.
    "SELECT count(*) FROM t WHERE tags = 'p'",
    "SELECT count(*) FROM t WHERE NOT tags = 'p'",
    "SELECT count(*) FROM t WHERE tags != 'p'",
    # MV group-by duplicates one doc into several groups.
    "SELECT sum(m), count(*) FROM t GROUP BY tags TOP 100",
    # Selection queries, with and without ORDER BY.
    "SELECT d1, m FROM t WHERE d2 = 'x' LIMIT 7",
    "SELECT d1, n, m FROM t WHERE n > 3 ORDER BY m DESC, d1 LIMIT 9",
]


@pytest.mark.parametrize("text", EDGE_QUERIES)
def test_edge_parity(built_segments, text):
    query = optimize(parse(text))
    for name, segment in built_segments.items():
        fast = run_engine(segment, query, vectorized=True)
        slow = run_engine(segment, query, vectorized=False)
        if query.is_aggregation:
            assert_same_rows(query, fast, slow, (name, text))
        else:
            assert fast.rows == slow.rows, (name, text)
