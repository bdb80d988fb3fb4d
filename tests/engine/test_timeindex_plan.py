"""Planner + executor tests for the timestamp-index rollup path.

Gating: only aggregation queries whose group-by is the time column (raw
or ``timebucket``), whose functions the rollup covers, and whose
predicate is a bucket-aligned time range may take a TIME_INDEX plan.
Parity: any query that qualifies must produce byte-identical final rows
to the scan path — rollups are an access-path optimization, never an
approximation.
"""

import random

import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_plan, execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.operators import DocSelection
from repro.engine.planner import PlanKind, plan_segment
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig


def build_segment():
    schema = Schema(
        "events",
        [
            dimension("country"),
            metric("views", DataType.LONG),
            metric("score", DataType.DOUBLE),
            time_column("day", DataType.INT),
        ],
    )
    builder = SegmentBuilder(
        "seg-ti", "events", schema,
        SegmentConfig(timestamp_index=(1, 5)),
    )
    rng = random.Random(7)
    for __ in range(2000):
        builder.add({
            "country": rng.choice(["us", "ca", "mx"]),
            "views": rng.randint(0, 50),
            "score": round(rng.random() * 10, 3),
            "day": 17000 + rng.randrange(30),  # days 17000..17029
        })
    return builder.build()


@pytest.fixture(scope="module")
def segment():
    return build_segment()


def plan(segment, pql, **kwargs):
    return plan_segment(segment, optimize(parse(pql)), **kwargs)


def run(segment, pql, allow_time_index=True):
    query = optimize(parse(pql))
    built = plan_segment(segment, query,
                         allow_time_index=allow_time_index)
    result = execute_plan(built)
    response = reduce_server_results(
        query, [combine_segment_results(query, [result])]
    )
    return built, response


class TestPlanGating:
    def test_time_group_by_uses_rollup(self, segment):
        p = plan(segment, "SELECT count(*) FROM events GROUP BY day")
        assert p.kind is PlanKind.TIME_INDEX
        assert p.time_rollup.granularity == 1

    def test_timebucket_picks_coarsest_divisor(self, segment):
        p = plan(segment,
                 "SELECT sum(views) FROM events "
                 "GROUP BY timebucket(day, 10)")
        assert p.kind is PlanKind.TIME_INDEX
        assert p.time_rollup.granularity == 5

        p = plan(segment,
                 "SELECT sum(views) FROM events "
                 "GROUP BY timebucket(day, 3)")
        assert p.kind is PlanKind.TIME_INDEX
        assert p.time_rollup.granularity == 1

    def test_uncovered_function_scans(self, segment):
        p = plan(segment,
                 "SELECT distinctcount(views) FROM events GROUP BY day")
        assert p.kind is PlanKind.SCAN

    def test_uncovered_column_scans(self):
        # A column attached after the build (§5.2 schema evolution) has
        # no rollup arrays. (A STRING column has none either, but a
        # numeric aggregate over it is a planning error.)
        from repro.cluster.server import ServerInstance

        evolved = build_segment()
        ServerInstance._add_virtual_column(evolved,
                                           metric("bonus", DataType.LONG))
        p = plan(evolved, "SELECT min(bonus) FROM events GROUP BY day")
        assert p.kind is PlanKind.SCAN

    def test_non_time_group_by_scans(self, segment):
        p = plan(segment, "SELECT count(*) FROM events GROUP BY country")
        assert p.kind is PlanKind.SCAN

    def test_multi_group_by_scans(self, segment):
        p = plan(segment,
                 "SELECT count(*) FROM events GROUP BY day, country")
        assert p.kind is PlanKind.SCAN

    def test_selection_query_scans(self, segment):
        p = plan(segment, "SELECT day, views FROM events LIMIT 5")
        assert p.kind is PlanKind.SCAN

    def test_non_time_predicate_scans(self, segment):
        p = plan(segment,
                 "SELECT count(*) FROM events "
                 "WHERE country = 'us' GROUP BY day")
        assert p.kind is PlanKind.SCAN

    def test_or_predicate_scans(self, segment):
        p = plan(segment,
                 "SELECT count(*) FROM events "
                 "WHERE day = 17001 OR day = 17003 GROUP BY day")
        assert p.kind is PlanKind.SCAN

    def test_aligned_time_range_uses_rollup(self, segment):
        p = plan(segment,
                 "SELECT sum(views) FROM events "
                 "WHERE day >= 17005 AND day < 17020 "
                 "GROUP BY timebucket(day, 5)")
        assert p.kind is PlanKind.TIME_INDEX
        assert p.time_rollup.granularity == 5
        assert (p.time_low, p.time_high) == (17005, 17019)

    def test_unaligned_bounds_fall_back_to_finer_rollup(self, segment):
        p = plan(segment,
                 "SELECT sum(views) FROM events "
                 "WHERE day BETWEEN 17003 AND 17010 "
                 "GROUP BY timebucket(day, 5)")
        assert p.kind is PlanKind.TIME_INDEX
        assert p.time_rollup.granularity == 1

    def test_bounds_normalize_against_segment_range(self, segment):
        # 16987 is below the segment's min time, so the bound does not
        # cut into this segment and normalizes away entirely.
        p = plan(segment,
                 "SELECT sum(views) FROM events "
                 "WHERE day >= 16987 GROUP BY timebucket(day, 5)")
        assert p.kind is PlanKind.TIME_INDEX
        assert p.time_low is None
        assert p.time_rollup.granularity == 5

    def test_allow_time_index_false_scans(self, segment):
        p = plan(segment, "SELECT count(*) FROM events GROUP BY day",
                 allow_time_index=False)
        assert p.kind is PlanKind.SCAN


PARITY_QUERIES = [
    "SELECT count(*), sum(views), min(score), max(score), avg(views), "
    "minmaxrange(views) FROM events GROUP BY day TOP 100",
    "SELECT count(*), sum(views), avg(score) FROM events "
    "GROUP BY timebucket(day, 5) TOP 100",
    "SELECT sum(views), count(*) FROM events "
    "WHERE day >= 17005 AND day < 17020 GROUP BY timebucket(day, 5) "
    "TOP 100",
    "SELECT count(*), min(views) FROM events "
    "WHERE day BETWEEN 17003 AND 17010 GROUP BY day TOP 100",
    "SELECT sum(views), max(score) FROM events "
    "WHERE day >= 17005 AND day <= 17024",
]


class TestScanParity:
    @pytest.mark.parametrize("pql", PARITY_QUERIES)
    def test_rollup_rows_match_scan(self, segment, pql):
        rollup_plan, rollup_response = run(segment, pql)
        scan_plan, scan_response = run(segment, pql,
                                       allow_time_index=False)
        assert rollup_plan.kind is PlanKind.TIME_INDEX, pql
        assert scan_plan.kind is PlanKind.SCAN, pql
        assert rollup_response.rows == scan_response.rows, pql

    @pytest.mark.parametrize("pql", PARITY_QUERIES)
    def test_rollup_rows_match_scalar_engine(self, segment, pql):
        query = optimize(parse(pql))
        __, rollup_response = run(segment, pql)
        scalar = execute_segment(segment, query, vectorized=False)
        scalar_response = reduce_server_results(
            query, [combine_segment_results(query, [scalar])]
        )
        assert rollup_response.rows == scalar_response.rows, pql

    def test_stats_mark_rollup_usage(self, segment):
        query = optimize(parse(PARITY_QUERIES[0]))
        result = execute_segment(segment, query)
        assert result.stats.time_index_used
        assert result.stats.time_index_buckets_scanned == 30
        assert result.stats.num_docs_scanned < segment.num_docs

    def test_valid_docs_mask_disables_rollup(self, segment):
        query = optimize(parse(PARITY_QUERIES[0]))
        mask = DocSelection(start=0, end=segment.num_docs - 1)
        result = execute_segment(segment, query, valid_docs=mask)
        assert not result.stats.time_index_used
