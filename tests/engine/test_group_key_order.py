"""Every grouped partial lists its groups in ascending key order.

The broker's TOP-n sorts the finalized groups on the ordering alone —
a stable sort — and lets the input order break ties, so it needs the
groups of every ``GroupByPartial`` that reaches it in ascending key
order (lexicographic over the key columns). This module holds that:

* per segment, for whichever plan kind answers — scan, star-tree,
  timestamp index, metadata (which never groups), a consuming view,
  multi-value and TIMEBUCKET keys — and for the scalar oracle's
  ``from_groups``;
* for the N-way merge, which must also number groups exactly as the
  ``np.unique`` merge it replaced did: the same keys, key dtypes and
  states, bit for bit (that merge is kept here as the reference);
* end to end: a TOP-n cut through a tie on a 3-server cluster returns
  the oracle's rows — the tied groups with the smallest keys.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.aggregates import function_for
from repro.engine.executor import execute_segment
from repro.engine.groupby import combine_codes
from repro.engine.merge import combine_segment_results
from repro.engine.planner import PlanKind, plan_segment
from repro.engine.results import GroupByPartial, SegmentResult
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.mutable import MutableSegment
from repro.sim.oracle import expected_rows
from repro.startree.builder import StarTreeConfig

FIRST_DAY = 100
NUM_DAYS = 8


def q(text):
    return optimize(parse(text))


def key_tuples(partial):
    return list(zip(*(column.tolist() for column in partial.keys)))


def assert_ascending(partial, context):
    tuples = key_tuples(partial)
    assert tuples == sorted(set(tuples)), context


# -- per segment, every plan kind ---------------------------------------------


SCHEMA = Schema("t", [
    dimension("a"), dimension("code"), dimension("n", DataType.LONG),
    dimension("tags", DataType.STRING, multi_value=True),
    metric("m", DataType.LONG), time_column("day", DataType.INT),
])


@pytest.fixture(scope="module")
def segments():
    rng = random.Random(17)
    records = [
        # ``a`` arrives in descending order: a consuming view's
        # insertion-ordered dictionary would number it backwards.
        {"a": "wvu"[min(2, i // 100)], "code": str(rng.randint(0, 11)),
         "n": rng.randint(-3, 6), "tags": rng.sample("zyx", rng.randint(0, 3)),
         "m": rng.randint(0, 50), "day": FIRST_DAY + rng.randrange(NUM_DAYS)}
        for i in range(300)
    ]
    configs = {
        "plain": SegmentConfig(),
        "sorted": SegmentConfig(sorted_column="n",
                                inverted_columns=("code", "tags")),
        "star": SegmentConfig(star_tree=StarTreeConfig(
            dimensions=("a", "code", "n", "day"), max_leaf_records=8)),
        "timeindex": SegmentConfig(timestamp_index=(1, 2)),
    }
    built = {}
    for name, config in configs.items():
        rows = sorted(records, key=lambda r: r["n"]) if name == "sorted" \
            else records
        builder = SegmentBuilder(f"seg_{name}", "t", SCHEMA, config)
        builder.add_all(rows)
        built[name] = builder.build()
    mutable = MutableSegment("t__0__0", "t", SCHEMA, SegmentConfig())
    mutable.index_all(records)
    built["consuming"] = mutable.snapshot()
    return built


GROUP_BYS = ["", "a", "n", "code", "a, n", "n, a", "day", "tags", "tags, n",
             "timebucket(day, 2)", "a, timebucket(day, 3)"]
FUNCS = ["count(*)", "sum(m)", "min(m)", "max(m)", "avg(m)",
         "distinctcount(code)"]
LEAVES = ["a = 'u'", "a != 'v'", "code IN (3, 7)", "n >= 1", "n < 0",
          "day BETWEEN 101 AND 104", "day >= 103", "tags = 'x'"]


@st.composite
def grouped_queries(draw):
    funcs = draw(st.lists(st.sampled_from(FUNCS), min_size=1, max_size=3,
                          unique=True))
    text = "SELECT " + ", ".join(funcs) + " FROM t"
    where = draw(st.lists(st.sampled_from(LEAVES), max_size=2, unique=True))
    if where:
        text += " WHERE " + " AND ".join(where)
    group = draw(st.sampled_from(GROUP_BYS))
    if group:
        text += f" GROUP BY {group} TOP 1000"
    return text


@settings(max_examples=120, deadline=None)
@given(grouped_queries())
def test_segment_partials_are_in_key_order(segments, text):
    query = q(text)
    results = []
    for name, segment in segments.items():
        for vectorized in (True, False):
            result = execute_segment(segment, query, vectorized=vectorized)
            context = (name, vectorized, text)
            if not query.group_by:
                assert result.group_by is None, context
                continue
            assert_ascending(result.group_by, context)
            results.append(result)
    if results:
        merged = combine_segment_results(query, results).group_by
        assert_ascending(merged, text)


@pytest.mark.parametrize("name,kind,text", [
    ("plain", PlanKind.METADATA, "SELECT count(*), max(m) FROM t"),
    ("plain", PlanKind.SCAN, "SELECT sum(m) FROM t GROUP BY tags, n TOP 99"),
    ("star", PlanKind.STAR_TREE,
     "SELECT sum(m) FROM t WHERE code IN (3, 7) GROUP BY a, n TOP 99"),
    ("timeindex", PlanKind.TIME_INDEX,
     "SELECT count(*) FROM t GROUP BY timebucket(day, 2) TOP 99"),
    ("sorted", PlanKind.SCAN, "SELECT max(m) FROM t WHERE n >= 1 "
                              "GROUP BY code TOP 99"),
    ("consuming", PlanKind.SCAN, "SELECT avg(m) FROM t GROUP BY a, day "
                                 "TOP 99"),
])
def test_every_plan_kind_is_reached(segments, name, kind, text):
    """The property is not vacuous: each kind answers some query."""
    query = q(text)
    assert plan_segment(segments[name], query).kind is kind
    result = execute_segment(segments[name], query)
    if kind is PlanKind.METADATA:
        assert result.group_by is None
        return
    assert result.group_by.num_groups > 1
    assert_ascending(result.group_by, text)


def test_from_groups_sorts_its_groups():
    query = q("SELECT count(*), sum(m) FROM t GROUP BY a, n TOP 9")
    partial = GroupByPartial.from_groups(
        {("b", 2): [1, 5.0], ("a", 7): [2, 1.0], ("b", -1): [3, 2.0]},
        query.aggregations)
    assert key_tuples(partial) == [("a", 7), ("b", -1), ("b", 2)]
    assert partial.states[0].tolist() == [2, 3, 1]
    assert partial.states[1].tolist() == [1.0, 2.0, 5.0]


# -- the merge numbers groups as the np.unique merge did ----------------------


def unique_merge(aggregations, partials):
    """The reference: the N-way group merge as it was, one
    ``np.unique(..., return_inverse=True)`` per key column."""
    partials = [p for p in partials if p.num_groups]
    if len(partials) < 2:
        return partials[0] if partials else GroupByPartial()
    columns = [np.concatenate(parts)
               for parts in zip(*(p.keys for p in partials))]
    numbered = [np.unique(c, return_inverse=True) for c in columns]
    if len(columns) == 1:
        (uniques, codes), = numbered
        keys = [uniques]
    else:
        codes, key_ids = combine_codes([len(u) for u, __ in numbered],
                                       [ids for __, ids in numbered])
        keys = [u[ids] for (u, __), ids in zip(numbered, key_ids)]
    return GroupByPartial(keys, [
        function_for(a).merge_grouped([p.states[i] for p in partials],
                                      codes, len(keys[0]))
        for i, a in enumerate(aggregations)
    ])


KEY_POOLS = {
    np.int8: [-128, -1, 0, 3, 127],
    np.int32: [-5, 0, 2, 9],
    np.int64: [-2 ** 63, -7, 0, 40, 2 ** 63 - 1],  # wide: ranked
    np.uint16: [0, 1, 65535],
    np.uint64: [0, 5, 2 ** 64 - 1],                 # wide: ranked
    bool: [False, True],
    object: ["", "a", "b", "ba"],
}


def key_array(values, dtype):
    if dtype is object:
        return np.fromiter(values, dtype=object, count=len(values))
    return np.asarray(values, dtype=dtype)


@st.composite
def partial_blocks(draw):
    dtypes = draw(st.lists(st.sampled_from(sorted(KEY_POOLS, key=str)),
                           min_size=1, max_size=3))
    group_by = ", ".join(f"k{j}" for j in range(len(dtypes)))
    query = q(f"SELECT count(*), sum(m), min(m) FROM t GROUP BY {group_by}")
    key = st.tuples(*(st.sampled_from(KEY_POOLS[d]) for d in dtypes))
    # Sevenths: a sum's bits depend on the order it is taken in.
    inexact = st.integers(-10 ** 6, 10 ** 6).map(lambda i: i / 7)
    partials = []
    for __ in range(draw(st.integers(1, 5))):
        groups = sorted(draw(st.sets(key, max_size=8)))
        values = [draw(inexact) for __ in groups]
        partials.append(GroupByPartial(
            [key_array([g[j] for g in groups], dtype)
             for j, dtype in enumerate(dtypes)] if groups else [],
            [np.asarray([draw(st.integers(1, 9)) for __ in groups],
                        dtype=np.int64),
             np.asarray(values, dtype=np.float64),
             np.asarray(values, dtype=np.float64)]))
    return query, partials


@settings(max_examples=300, deadline=None)
@given(partial_blocks())
def test_merge_matches_the_unique_merge(case):
    query, partials = case
    aggregations = query.aggregations
    got = combine_segment_results(
        query, [SegmentResult(group_by=p) for p in partials]).group_by
    want = unique_merge(aggregations, partials)
    assert len(got.keys) == len(want.keys)
    for mine, theirs in zip(got.keys, want.keys):
        assert mine.dtype == theirs.dtype
        assert mine.tolist() == theirs.tolist()
    assert repr(got.groups(aggregations)) == repr(want.groups(aggregations))
    assert_ascending(got, partials)


# -- end to end: a TOP-n cut through a tie ------------------------------------


def test_top_n_tie_at_the_cut_off_on_three_servers():
    schema = Schema("ties", [
        dimension("k", DataType.LONG), dimension("s"),
        dimension("seg", DataType.INT),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])
    # Twelve keys. Key 7 sums to 20; the other eleven tie at 10, so a
    # TOP 4 cuts through the tie and must keep keys 0, 1, 2 (ascending),
    # and by STRING key "k0", "k1", "k10" (lexicographic).
    records = []
    for repeat in range(10):
        for key in range(12):
            records.append({"k": key, "s": f"k{key}",
                            "m": 2 if key == 7 else 1,
                            "day": FIRST_DAY + (key * 7 + repeat) % NUM_DAYS})
    random.Random(3).shuffle(records)
    # The last segment holds its keys in descending order, and a query
    # that matches only its rows hands the broker one unmerged partial.
    records[100:] = sorted(records[100:], key=lambda r: -r["k"])
    for i, record in enumerate(records):
        record["seg"] = i // 20
    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline("ties", schema))
    cluster.upload_records("ties", records, rows_per_segment=20)

    texts = ["SELECT sum(m) FROM ties GROUP BY k TOP 4",
             "SELECT sum(m) FROM ties GROUP BY s TOP 4",
             "SELECT sum(m), count(*) FROM ties GROUP BY s, k TOP 5",
             "SELECT count(*) FROM ties WHERE day < 104 GROUP BY k TOP 3",
             "SELECT count(*) FROM ties WHERE seg = 5 GROUP BY k TOP 3"]
    for text in texts:
        want = expected_rows(q(text), records)
        for vectorized in ("true", "false"):
            option = f" OPTION(skipCache=true, vectorized={vectorized})"
            response = cluster.execute(text + option)
            assert not response.is_partial and not response.cache_hit
            assert response.rows == want, (text + option, response.rows)
    assert expected_rows(q(texts[0]), records) == [
        (7, 20), (0, 10), (1, 10), (2, 10)]
    assert [row[0] for row in expected_rows(q(texts[1]), records)] == [
        "k7", "k0", "k1", "k10"]
