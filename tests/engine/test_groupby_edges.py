"""Edge cases of vectorized group-by execution."""

import numpy as np
import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric
from repro.engine.executor import execute_segment
from repro.engine.groupby import execute_group_by
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.operators import DocSelection
from repro.engine.results import ExecutionStats, SegmentResult
from repro.errors import ExecutionError
from repro.pql.ast_nodes import AggFunc, Aggregation, Query
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder


@pytest.fixture(scope="module")
def segment():
    schema = Schema("t", [
        dimension("d"),
        dimension("tags", DataType.STRING, multi_value=True),
        dimension("labels", DataType.STRING, multi_value=True),
        metric("m", DataType.LONG),
    ])
    builder = SegmentBuilder("seg", "t", schema)
    builder.add_all([
        {"d": "a", "tags": ["x", "y"], "labels": ["p"], "m": 1},
        {"d": "a", "tags": [], "labels": ["q"], "m": 2},
        {"d": "b", "tags": ["y"], "labels": [], "m": 3},
        {"d": "b", "tags": ["x", "x"], "labels": ["p", "q"], "m": 4},
    ])
    return builder.build()


def run(segment, pql):
    query = optimize(parse(pql))
    result = execute_segment(segment, query)
    return reduce_server_results(
        query, [combine_segment_results(query, [result])]
    )


class TestMultiValueGroupBy:
    def test_empty_cells_contribute_nothing(self, segment):
        response = run(segment,
                       "SELECT sum(m) FROM t GROUP BY tags TOP 10")
        got = {row[0]: row[1] for row in response.rows}
        # Row 2 (tags=[]) contributes to no group; row 4's duplicate
        # 'x' values contribute twice (per-value semantics).
        assert got == {"x": 1.0 + 4.0 + 4.0, "y": 1.0 + 3.0}

    def test_mixed_single_and_multi_group(self, segment):
        response = run(segment,
                       "SELECT count(*) FROM t GROUP BY d, tags TOP 10")
        got = {(row[0], row[1]): row[2] for row in response.rows}
        assert got == {("a", "x"): 1, ("a", "y"): 1, ("b", "y"): 1,
                       ("b", "x"): 2}

    def test_two_multi_value_group_columns_rejected(self, segment):
        query = Query("t", (Aggregation(AggFunc.COUNT, "*"),),
                      group_by=("tags", "labels"))
        selection = DocSelection.full(segment.num_docs)
        with pytest.raises(ExecutionError, match="multi-value"):
            execute_group_by(segment, query, selection)

    def test_all_rows_filtered_out(self, segment):
        response = run(segment,
                       "SELECT sum(m) FROM t WHERE d = 'zz' "
                       "GROUP BY tags TOP 10")
        assert response.rows == []

    def test_group_by_after_multi_value_filter(self, segment):
        response = run(segment,
                       "SELECT count(*) FROM t WHERE tags = 'x' "
                       "GROUP BY d TOP 10")
        got = {row[0]: row[1] for row in response.rows}
        assert got == {"a": 1, "b": 1}


class TestMultiValueExpansion:
    """``_expand_multi_value`` finds each selected doc's entries by
    offset arithmetic; both engines must agree wherever the selection
    comes from and however many entries a doc has."""

    @pytest.fixture(scope="class")
    def ragged(self):
        # Entry counts 0-3 in no order, empty cells first and last.
        schema = Schema("t", [dimension("d"),
                              dimension("tags", multi_value=True),
                              metric("m", DataType.LONG)])
        cells = [[], ["x"], [], ["y", "x", "z"], ["z", "z"], [], ["y"],
                 ["x", "y"], [], []]
        builder = SegmentBuilder("seg", "t", schema)
        builder.add_all({"d": "ab"[i % 2], "tags": tags, "m": i + 1}
                        for i, tags in enumerate(cells * 3))
        return builder.build()

    @staticmethod
    def both(segment, pql, valid_docs=None):
        query = optimize(parse(pql))
        rows = []
        for vectorized in (True, False):
            result = execute_segment(segment, query, vectorized=vectorized,
                                     valid_docs=valid_docs)
            response = reduce_server_results(
                query, [combine_segment_results(query, [result])])
            rows.append(sorted(response.rows))
        return rows

    @pytest.mark.parametrize("pql", [
        # Every doc (a contiguous selection), empty cells included.
        "SELECT count(*), sum(m) FROM t GROUP BY tags TOP 100",
        "SELECT sum(m), max(m) FROM t GROUP BY d, tags TOP 100",
        # A scattered selection.
        "SELECT count(*), sum(m) FROM t WHERE m > 4 AND d = 'a' "
        "GROUP BY tags TOP 100",
        # Only docs with no entries at all.
        "SELECT count(*) FROM t WHERE m IN (1, 3, 6) GROUP BY tags TOP 100",
    ])
    def test_matches_the_scalar_engine(self, ragged, pql):
        fast, slow = self.both(ragged, pql)
        assert fast == slow

    def test_contiguous_sub_range(self, ragged):
        query = optimize(parse(
            "SELECT count(*), sum(m) FROM t GROUP BY tags, d TOP 100"))
        whole = execute_group_by(ragged, query, DocSelection.full(30))
        parts = [execute_group_by(ragged, query, selection)
                 for selection in (DocSelection.from_range(0, 13),
                                   DocSelection.from_range(13, 30))]
        merged = combine_segment_results(
            query, [_grouped(p) for p in parts]).group_by
        assert (sorted(merged.groups(query.aggregations))
                == sorted(whole.groups(query.aggregations)))
        # Docs 8-10 have no entries: a selection of nothing but them.
        assert execute_group_by(
            ragged, query, DocSelection.from_range(8, 11)).num_groups == 0

    @pytest.mark.parametrize("valid", [
        [0, 3, 4, 7, 13, 14, 29],       # scattered, some cells empty
        list(range(5, 12)),             # a dense run
        [0, 2, 5, 8, 9],                # nothing but empty cells
    ])
    def test_under_a_valid_docs_mask(self, ragged, valid):
        mask = np.zeros(30, dtype=bool)
        mask[valid] = True
        fast, slow = self.both(
            ragged, "SELECT count(*), sum(m) FROM t GROUP BY tags TOP 100",
            valid_docs=DocSelection.from_mask(mask))
        assert fast == slow
        fast, slow = self.both(
            ragged, "SELECT sum(m) FROM t WHERE m > 2 GROUP BY d, tags "
            "TOP 100", valid_docs=DocSelection.from_mask(mask))
        assert fast == slow


def _grouped(partial):
    return SegmentResult(group_by=partial, stats=ExecutionStats())
