"""Tests for per-segment planning: plan kinds, pruning, cost ordering."""

import pytest

from repro.cache.pruner import compile_pruner, prune_reason
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.planner import PlanKind, plan_segment
from repro.errors import PlanningError
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.startree.builder import StarTreeConfig


@pytest.fixture(scope="module")
def segment():
    schema = Schema("t", [
        dimension("s"), dimension("n", DataType.LONG),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])
    builder = SegmentBuilder(
        "seg", "t", schema,
        SegmentConfig(sorted_column="s", inverted_columns=("n",),
                      star_tree=StarTreeConfig(
                          dimensions=("s", "n", "day"),
                          max_leaf_records=8)),
    )
    import random

    rng = random.Random(1)
    for __ in range(300):
        builder.add({"s": rng.choice("abc"), "n": rng.randint(0, 5),
                     "m": rng.randint(0, 10),
                     "day": 17000 + rng.randint(0, 6)})
    return builder.build()


def plan(segment, pql, **kwargs):
    return plan_segment(segment, optimize(parse(pql)), **kwargs)


class TestPlanKinds:
    def test_metadata_only_count(self, segment):
        assert plan(segment, "SELECT count(*) FROM t").kind is \
            PlanKind.METADATA

    def test_metadata_only_min_max(self, segment):
        p = plan(segment, "SELECT min(m), max(m), minmaxrange(m) FROM t")
        assert p.kind is PlanKind.METADATA

    def test_metadata_not_used_with_filter(self, segment):
        p = plan(segment, "SELECT count(*) FROM t WHERE s = 'a'")
        assert p.kind is not PlanKind.METADATA

    def test_metadata_not_used_for_sum(self, segment):
        assert plan(segment, "SELECT sum(m) FROM t").kind is not \
            PlanKind.METADATA

    def test_star_tree_plan(self, segment):
        p = plan(segment, "SELECT sum(m) FROM t WHERE s = 'a' GROUP BY n")
        assert p.kind is PlanKind.STAR_TREE

    def test_star_tree_disabled_flag(self, segment):
        p = plan(segment, "SELECT sum(m) FROM t WHERE s = 'a'",
                 allow_star_tree=False)
        assert p.kind is PlanKind.SCAN

    def test_star_tree_rejected_for_distinctcount(self, segment):
        p = plan(segment, "SELECT distinctcount(n) FROM t WHERE s = 'a'")
        assert p.kind is PlanKind.SCAN

    def test_star_tree_rejected_for_selection(self, segment):
        p = plan(segment, "SELECT s, n FROM t WHERE s = 'a'")
        assert p.kind is PlanKind.SCAN

    def test_unknown_column_rejected(self, segment):
        with pytest.raises(PlanningError, match="missing columns"):
            plan(segment, "SELECT sum(zzz) FROM t")


def reason(segment, pql):
    return prune_reason(segment.metadata,
                        compile_pruner(optimize(parse(pql))))


class TestTimePruning:
    """A segment outside the query's time range never reaches the
    planner: the shared prune check (``repro.cache.pruner``) skips it."""

    def test_pruned_when_disjoint(self, segment):
        assert reason(
            segment, "SELECT sum(m) FROM t WHERE day > 18000") == "zone_map"

    def test_pruned_below(self, segment):
        assert reason(
            segment, "SELECT sum(m) FROM t WHERE day < 16000") == "zone_map"

    def test_not_pruned_when_overlapping(self, segment):
        assert reason(
            segment,
            "SELECT sum(m) FROM t WHERE day BETWEEN 17003 AND 19000",
        ) is None

    def test_or_does_not_prune(self, segment):
        # A top-level OR gives no usable time bound.
        assert reason(
            segment,
            "SELECT sum(m) FROM t WHERE day > 18000 OR s = 'a'") is None


class TestCostOrdering:
    def test_sorted_operator_runs_first(self, segment):
        p = plan(
            segment,
            "SELECT sum(m) FROM t WHERE n = 3 AND s = 'b' "
            "AND day >= 17001",
            allow_star_tree=False,
        )
        description = p.filter_plan.describe()
        # Sorted-column operator must be the first AND child.
        assert description.startswith("And(SortedRange(s")

    def test_ordering_disabled_preserves_query_order(self, segment):
        p = plan(
            segment,
            "SELECT sum(m) FROM t WHERE n = 3 AND s = 'b'",
            allow_star_tree=False, use_cost_ordering=False,
        )
        description = p.filter_plan.describe()
        assert description.startswith("And(Inverted(n")
