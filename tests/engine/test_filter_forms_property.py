"""A scan filter gives one answer whatever form its context arrives in.

A scan leaf has three physical forms — a slice comparison for a
contiguous context, a whole-column comparison ANDed into the mask of a
mask context, a gather for an id-array context — and which one runs
depends on what the operators before it produced. Hypothesis builds
random AND / OR / NOT trees of scan leaves over single- and multi-value
columns and runs each from five starting contexts (full, contiguous
sub-range, mask, id array, an upsert ``valid_docs`` base); every run
must return the doc set, and charge the ``entries_scanned``, of the
reference below, which evaluates leaf by leaf on doc-id arrays the way
the engine did before its scans stayed in mask space.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.operators import (
    AndFilter,
    DocSelection,
    FilterStats,
    MatchAllFilter,
    MatchNoneFilter,
    OrFilter,
    ScanFilter,
)
from repro.engine.planner import plan_segment
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder

NUM_DOCS = 240
D = list("abcdef")
TAGS = list("pqrst")
N_VALUES = list(range(8))
DAYS = list(range(100, 106))


@pytest.fixture(scope="module")
def segment():
    schema = Schema("t", [
        dimension("d"), dimension("n", DataType.LONG),
        dimension("tags", multi_value=True),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])
    rng = random.Random(11)
    builder = SegmentBuilder("seg", "t", schema)  # no index: scans only
    builder.add_all(
        {"d": rng.choice(D), "n": rng.choice(N_VALUES),
         "tags": rng.sample(TAGS, rng.randint(0, 3)),
         "m": rng.randint(0, 50), "day": rng.choice(DAYS)}
        for __ in range(NUM_DOCS))
    return builder.build()


# -- the reference --------------------------------------------------------


def reference(op, docs: np.ndarray, stats: FilterStats) -> np.ndarray:
    """``op`` within the sorted doc ids ``docs``, leaf by leaf: gather
    the context's dictionary ids, test them, compress the ids."""
    if isinstance(op, MatchAllFilter):
        return docs
    if isinstance(op, MatchNoneFilter):
        return docs[:0]
    if isinstance(op, AndFilter):
        for child in op.children:
            docs = reference(child, docs, stats)
            if not len(docs):
                break
        return docs
    if isinstance(op, OrFilter):
        parts = [reference(child, docs, stats) for child in op.children]
        return np.unique(np.concatenate(parts))
    assert isinstance(op, ScanFilter), op
    wanted = op.match.id_array()
    if op.column.is_multi_value:
        forward = op.column.forward
        stats.entries_scanned += len(forward.flat_ids())
        keep = [bool(np.isin(forward.dict_ids_of(doc), wanted).any())
                for doc in docs.tolist()]
        return docs[np.asarray(keep, dtype=bool)]
    stats.entries_scanned += len(docs)
    return docs[np.isin(op.column.dict_ids()[docs], wanted)]


# -- random trees of scan leaves ----------------------------------------------

leaves = st.one_of(
    st.sampled_from(D).map(lambda v: f"d = '{v}'"),
    st.sampled_from(D).map(lambda v: f"d != '{v}'"),
    st.lists(st.sampled_from(D), min_size=2, max_size=4).map(
        lambda vs: "d IN ({})".format(", ".join(f"'{v}'" for v in vs))),
    st.tuples(st.sampled_from(N_VALUES),
              st.sampled_from(["<", "<=", ">", ">="])).map(
        lambda t: f"n {t[1]} {t[0]}"),
    st.lists(st.sampled_from(N_VALUES), min_size=3, max_size=5).map(
        lambda vs: f"n NOT IN ({', '.join(map(str, vs))})"),
    st.tuples(st.sampled_from(DAYS), st.integers(0, 4)).map(
        lambda t: f"day BETWEEN {t[0]} AND {t[0] + t[1]}"),
    st.sampled_from(TAGS).map(lambda v: f"tags = '{v}'"),
    st.sampled_from(TAGS).map(lambda v: f"tags != '{v}'"),
)


def join_with(op):
    return lambda parts: f" {op} ".join(f"({p})" for p in parts)


predicates = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(join_with("AND")),
        st.lists(inner, min_size=2, max_size=3).map(join_with("OR")),
        inner.map(lambda p: f"NOT ({p})"),
    ),
    max_leaves=6,
)

doc_sets = st.sets(st.integers(0, NUM_DOCS - 1), min_size=1, max_size=120)


def sparse(docs: set[int]) -> np.ndarray:
    """``docs`` sorted, with a hole at doc 1 between docs 0 and 2 (a
    dense run would turn into a range and test the wrong form)."""
    return np.asarray(sorted((docs | {0, 2}) - {1}), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(predicates, doc_sets, st.integers(0, NUM_DOCS - 1),
       st.integers(1, NUM_DOCS), st.booleans())
def test_every_context_form_matches_the_reference(
        segment, where, docs, start, length, cost_ordering):
    query = optimize(parse(f"SELECT count(*) FROM t WHERE {where}"))
    root = plan_segment(segment, query, cost_ordering).filter_plan.root
    if root is None:
        return
    ids = sparse(docs)
    mask = np.zeros(NUM_DOCS, dtype=bool)
    mask[ids] = True
    pristine = mask.copy()
    contexts = {
        "full": DocSelection.full(NUM_DOCS),
        "range": DocSelection.from_range(start,
                                         min(NUM_DOCS, start + length)),
        "mask": DocSelection(mask=mask),
        "ids": DocSelection.from_docs(ids),
    }
    for form, context in contexts.items():
        want_stats = FilterStats()
        want = reference(root, context.doc_array(), want_stats)
        got_stats = FilterStats()
        got = root.execute(context, got_stats)
        assert got.doc_array().tolist() == want.tolist(), (form, where)
        assert got.count == len(want), (form, where)
        assert got_stats.entries_scanned == want_stats.entries_scanned, (
            form, where)
    # Masks are values: the context's came back as it went in.
    assert np.array_equal(mask, pristine), where

    # The upsert path: the valid-docId mask is the plan's base.
    plan = plan_segment(segment, query, cost_ordering)
    want_stats = FilterStats()
    want = reference(root, ids, want_stats)
    got = plan.filter_plan.execute(DocSelection.from_mask(mask))
    assert got.doc_array().tolist() == want.tolist(), where
    assert (plan.filter_plan.stats.entries_scanned
            == want_stats.entries_scanned), where
    assert np.array_equal(mask, pristine), where


def test_or_branches_share_one_context_mask(segment):
    """Both branches of an OR scan the same mask context, and the second
    must see it as the first did."""
    query = optimize(parse(
        "SELECT count(*) FROM t WHERE day >= 101 "
        "AND ((n >= 3 AND d != 'a') OR (n < 2 AND d != 'b'))"))
    root = plan_segment(segment, query).filter_plan.root
    stats, want_stats = FilterStats(), FilterStats()
    full = DocSelection.full(NUM_DOCS)
    want = reference(root, full.doc_array(), want_stats)
    assert root.execute(full, stats).doc_array().tolist() == want.tolist()
    assert stats.entries_scanned == want_stats.entries_scanned


def test_entries_scanned_of_a_two_leaf_and_is_pinned(segment):
    """``day BETWEEN`` decides all 240 docs, ``n >=`` the 111 it kept —
    351 entries, however the second leaf is evaluated."""
    query = optimize(parse(
        "SELECT sum(m) FROM t WHERE day BETWEEN 101 AND 103 AND n >= 3 "
        "GROUP BY d TOP 10"))
    result = execute_segment(segment, query)
    days = segment.column("day").values()
    assert int(((days >= 101) & (days <= 103)).sum()) == 111
    assert result.stats.num_entries_scanned_in_filter == 240 + 111
    oracle = execute_segment(segment, query, vectorized=False)
    assert result.stats.num_docs_scanned == oracle.stats.num_docs_scanned
