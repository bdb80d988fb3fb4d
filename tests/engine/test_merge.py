"""Tests for partial-result combining and broker-side reduction."""

from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.results import (
    AggregationPartial,
    ExecutionStats,
    GroupByPartial,
    SegmentResult,
    SelectionPartial,
    ServerResult,
)
from repro.pql.parser import parse
from repro.pql.rewriter import optimize


def q(text):
    return optimize(parse(text))


class TestCombineSegments:
    def test_aggregation_states_merge(self):
        query = q("SELECT count(*), sum(m) FROM t")
        results = [
            SegmentResult(aggregation=AggregationPartial([3, 10.0]),
                          stats=ExecutionStats(num_docs_scanned=3)),
            SegmentResult(aggregation=AggregationPartial([2, 5.0]),
                          stats=ExecutionStats(num_docs_scanned=2)),
        ]
        combined = combine_segment_results(query, results, "server-1")
        assert combined.aggregation.states == [5, 15.0]
        assert combined.stats.num_docs_scanned == 5
        assert combined.server == "server-1"

    def test_group_by_merges_keys(self):
        query = q("SELECT sum(m) FROM t GROUP BY s")
        aggregations = query.aggregations
        a = GroupByPartial.from_groups({("x",): [1.0], ("y",): [2.0]},
                                       aggregations)
        b = GroupByPartial.from_groups({("y",): [3.0], ("z",): [4.0]},
                                       aggregations)
        combined = combine_segment_results(
            query,
            [SegmentResult(group_by=a), SegmentResult(group_by=b)],
        )
        assert combined.group_by.groups(aggregations) == {
            ("x",): [1.0], ("y",): [5.0], ("z",): [4.0]
        }

    def test_selection_rows_trimmed_to_limit(self):
        query = q("SELECT a FROM t LIMIT 3")
        partials = [
            SegmentResult(selection=SelectionPartial.from_rows(
                ("a",), [(i,) for i in range(5)]))
        ]
        combined = combine_segment_results(query, partials)
        assert len(combined.selection.rows()) == 3


class TestReduce:
    def test_aggregation_finalized(self):
        query = q("SELECT avg(m) FROM t")
        servers = [
            ServerResult("s1", aggregation=AggregationPartial([(10.0, 2)])),
            ServerResult("s2", aggregation=AggregationPartial([(20.0, 3)])),
        ]
        response = reduce_server_results(query, servers)
        assert response.rows == [(6.0,)]
        assert response.table.columns == ("avg(m)",)

    def test_error_marks_partial(self):
        query = q("SELECT count(*) FROM t")
        servers = [
            ServerResult("s1", aggregation=AggregationPartial([7])),
            ServerResult("s2", error="timeout"),
        ]
        response = reduce_server_results(query, servers)
        assert response.is_partial
        assert response.exceptions == ["s2: timeout"]
        assert response.rows == [(7,)]  # partial data still returned

    def test_group_by_top_n_applied_at_reduce(self):
        query = q("SELECT sum(m) FROM t GROUP BY s TOP 2")
        servers = [
            ServerResult("s1", group_by=GroupByPartial.from_groups(
                {("a",): [5.0], ("b",): [1.0], ("c",): [9.0]},
                query.aggregations,
            )),
        ]
        response = reduce_server_results(query, servers)
        assert [row[0] for row in response.rows] == ["c", "a"]

    def test_empty_aggregation_response(self):
        query = q("SELECT count(*) FROM t")
        response = reduce_server_results(query, [])
        assert response.rows == [(0,)]

    def test_empty_selection_response(self):
        query = q("SELECT a FROM t")
        response = reduce_server_results(query, [])
        assert response.rows == []
        assert response.table.columns == ("a",)

    def test_selection_merge_sorts_across_servers(self):
        query = q("SELECT a FROM t ORDER BY a DESC LIMIT 3")
        servers = [
            ServerResult("s1", selection=SelectionPartial.from_rows(
                ("a",), [(1,), (5,)])),
            ServerResult("s2", selection=SelectionPartial.from_rows(
                ("a",), [(9,), (2,)])),
        ]
        response = reduce_server_results(query, servers)
        assert [row[0] for row in response.rows] == [9, 5, 2]

    def test_result_table_helpers(self):
        query = q("SELECT count(*) FROM t")
        response = reduce_server_results(
            query, [ServerResult("s1",
                                 aggregation=AggregationPartial([4]))]
        )
        assert response.table.to_dicts() == [{"count(*)": 4}]
        assert response.table.column_values("count(*)") == [4]
        assert len(response.table) == 1


class TestMetadataOnlyFlag:
    """``metadata_only`` is an AND over segments; it used to be and-ed
    into a fresh accumulator's False and could never come out True."""

    def results(self, scanned_segments):
        from repro.common.schema import Schema
        from repro.common.types import DataType, dimension, metric
        from repro.engine.executor import execute_plan
        from repro.engine.planner import plan_segment
        from repro.segment.builder import SegmentBuilder

        schema = Schema("t", [dimension("a"), metric("m", DataType.LONG)])
        query = q("SELECT count(*), max(m) FROM t")
        results = []
        for index in range(4):
            builder = SegmentBuilder(f"seg{index}", "t", schema)
            builder.add_all({"a": "x", "m": index * 10 + i}
                            for i in range(5))
            plan = plan_segment(
                builder.build(), query,
                allow_metadata_only=index >= scanned_segments)
            results.append(execute_plan(plan))
        servers = [combine_segment_results(query, results[:2], "s1"),
                   combine_segment_results(query, results[2:], "s2")]
        return servers, reduce_server_results(query, servers)

    def test_all_segments_from_metadata(self):
        servers, response = self.results(scanned_segments=0)
        assert [s.stats.metadata_only for s in servers] == [True, True]
        assert response.stats.metadata_only
        assert response.rows == [(20, 34.0)]
        assert response.stats.num_docs_scanned == 0

    def test_one_scanned_segment_clears_it(self):
        servers, response = self.results(scanned_segments=1)
        assert [s.stats.metadata_only for s in servers] == [False, True]
        assert not response.stats.metadata_only
        assert response.rows == [(20, 34.0)]

    def test_nothing_merged_stays_false(self):
        query = q("SELECT count(*) FROM t")
        assert not combine_segment_results(query, []).stats.metadata_only
        assert not reduce_server_results(query, []).stats.metadata_only
