"""Star-tree query execution: support detection and equivalence with raw
execution on randomized queries."""

import random

import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.errors import PlanningError
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.startree.builder import StarTreeConfig
from repro.startree.query import supports_query


@pytest.fixture(scope="module")
def segment():
    schema = Schema("t", [
        dimension("a"), dimension("b"), dimension("n", DataType.LONG),
        metric("m", DataType.LONG), metric("f", DataType.DOUBLE),
        time_column("day", DataType.INT),
    ])
    rng = random.Random(17)
    builder = SegmentBuilder(
        "seg", "t", schema,
        SegmentConfig(star_tree=StarTreeConfig(
            dimensions=("a", "b", "n", "day"), max_leaf_records=12)),
    )
    for __ in range(3000):
        builder.add({
            "a": rng.choice("uvw"), "b": rng.choice("pqrst"),
            "n": rng.randint(0, 6), "m": rng.randint(0, 50),
            "f": round(rng.random(), 3),
            "day": 17000 + rng.randint(0, 5),
        })
    return builder.build()


def q(text):
    return optimize(parse(text))


def run(segment, text, allow_star_tree=True):
    query = q(text)
    result = execute_segment(segment, query,
                             allow_star_tree=allow_star_tree)
    server = combine_segment_results(query, [result])
    return reduce_server_results(query, [server]), result.stats


class TestSupports:
    def test_supported_shapes(self, segment):
        for text in [
            "SELECT sum(m) FROM t WHERE a = 'u'",
            "SELECT count(*) FROM t WHERE b IN ('p', 'q')",
            "SELECT min(m), max(m), avg(m) FROM t WHERE n = 3 GROUP BY a",
            "SELECT sum(m) FROM t WHERE day BETWEEN 17001 AND 17003",
            "SELECT sum(m) FROM t WHERE n >= 4 AND a = 'v' GROUP BY b",
            "SELECT sum(m) FROM t",
            "SELECT minmaxrange(m) FROM t WHERE a = 'u' GROUP BY b",
            "SELECT count(a) FROM t WHERE b = 'p'",
        ]:
            assert supports_query(segment, q(text)), text

    def test_unsupported_shapes(self, segment):
        for text in [
            "SELECT a FROM t WHERE a = 'u'",              # selection
            "SELECT distinctcount(b) FROM t",              # exact distinct
            "SELECT percentile50(m) FROM t",               # percentile
            "SELECT sum(f) FROM t WHERE a = 'u'",          # wait: f IS a metric
        ][:3]:
            assert not supports_query(segment, q(text)), text

    def test_or_across_dimensions_unsupported(self, segment):
        assert not supports_query(
            segment,
            q("SELECT sum(m) FROM t WHERE a = 'u' OR b = 'p'"),
        )

    def test_or_within_dimension_supported(self, segment):
        # The rewriter fuses it into an IN (Fig 10's shape).
        assert supports_query(
            segment,
            q("SELECT sum(m) FROM t WHERE a = 'u' OR a = 'v'"),
        )

    def test_negation_unsupported(self, segment):
        assert not supports_query(
            segment,
            q("SELECT sum(m) FROM t WHERE a != 'u'"),
        )

    def test_group_by_non_dimension_unsupported(self, segment):
        from repro.pql.ast_nodes import AggFunc, Aggregation, Query

        query = Query("t", (Aggregation(AggFunc.SUM, "m"),),
                      group_by=("m",))
        assert not supports_query(segment, query)


QUERIES = [
    "SELECT sum(m) FROM t WHERE a = 'u'",
    "SELECT count(*), sum(m) FROM t WHERE b = 'q' AND n = 2",
    "SELECT sum(m), avg(m) FROM t WHERE a IN ('u', 'w') GROUP BY b TOP 50",
    "SELECT count(*) FROM t WHERE day BETWEEN 17001 AND 17002 GROUP BY a "
    "TOP 50",
    "SELECT min(m), max(m) FROM t WHERE n <= 2 AND a = 'v'",
    "SELECT sum(f) FROM t WHERE b = 'p' OR b = 't' GROUP BY n TOP 50",
    "SELECT sum(m) FROM t WHERE n > 4 GROUP BY a, b TOP 100",
    "SELECT count(*) FROM t WHERE a = 'u' AND b = 'p' AND n = 0 "
    "AND day = 17000",
    "SELECT sum(m) FROM t GROUP BY day TOP 10",
    "SELECT minmaxrange(m), minmaxrange(f) FROM t WHERE a = 'w' AND n < 5",
    "SELECT minmaxrange(f), count(*) FROM t WHERE n >= 2 GROUP BY b TOP 50",
]


class TestEquivalence:
    @pytest.mark.parametrize("text", QUERIES)
    def test_star_tree_matches_raw_execution(self, segment, text):
        star_response, star_stats = run(segment, text)
        raw_response, raw_stats = run(segment, text, allow_star_tree=False)
        assert star_stats.startree_used
        assert not raw_stats.startree_used

        def canon(rows):
            return sorted(
                tuple(round(c, 6) if isinstance(c, float) else c
                      for c in row)
                for row in rows
            )

        assert canon(star_response.rows) == canon(raw_response.rows)

    @pytest.mark.parametrize("text", QUERIES[:5])
    def test_star_tree_scans_fewer_records(self, segment, text):
        __, star_stats = run(segment, text)
        __, raw_stats = run(segment, text, allow_star_tree=False)
        if raw_stats.num_docs_scanned > 100:
            assert (star_stats.startree_docs_scanned
                    < raw_stats.num_docs_scanned)

    def test_absent_constraint_value_yields_empty(self, segment):
        response, stats = run(segment,
                              "SELECT sum(m) FROM t WHERE a = 'zzz'")
        assert stats.startree_used
        assert response.rows[0][0] == 0.0


@pytest.fixture(scope="module")
def coded_segment():
    """A STRING dimension holding digits (``code``) next to a LONG one
    (``n``): where a literal's type and the column's differ."""
    schema = Schema("t", [
        dimension("code"), dimension("n", DataType.LONG),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])
    rng = random.Random(23)
    builder = SegmentBuilder(
        "seg", "t", schema,
        SegmentConfig(star_tree=StarTreeConfig(
            dimensions=("code", "n", "day"), max_leaf_records=12)),
    )
    for __ in range(3000):
        builder.add({
            "code": str(rng.randint(0, 9)), "n": rng.randint(0, 6),
            "m": rng.randint(0, 50), "day": 17000 + rng.randint(0, 5),
        })
    return builder.build()


class TestOneLeafCompiler:
    """Star-tree filters compile through the scan path's
    ``compile_leaf``, so a literal is coerced — or rejected — exactly as
    a scan does it. The star-tree's own bisect-based copy died on all
    of these with a bare ``TypeError`` during planning."""

    @pytest.mark.parametrize("where", [
        "code = 5", "code IN (5, 6)", "code > 5",
        "n = 3.0", "n BETWEEN 1.5 AND 3.5",
        "code >= 3 AND code < 7.5 AND n != 2",
    ])
    def test_literal_of_another_type_answers_as_raw(self, coded_segment,
                                                    where):
        text = f"SELECT count(*), sum(m) FROM t WHERE {where}"
        raw_response, raw_stats = run(coded_segment, text,
                                      allow_star_tree=False)
        star_response, star_stats = run(coded_segment, text)
        assert not raw_stats.startree_used
        # NEQ is not a star-tree shape: that case checks the fallback.
        assert star_stats.startree_used == ("!=" not in where)
        assert star_response.rows == raw_response.rows  # m is integral
        assert raw_response.rows[0][0] > 0

    @pytest.mark.parametrize("allow_star_tree", [True, False])
    def test_string_literal_on_numeric_dimension(self, coded_segment,
                                                 allow_star_tree):
        with pytest.raises(PlanningError, match="string literal"):
            run(coded_segment, "SELECT count(*) FROM t WHERE n = '3'",
                allow_star_tree=allow_star_tree)

    def test_contradicting_leaves_on_one_dimension(self, coded_segment):
        response, stats = run(
            coded_segment,
            "SELECT count(*), min(m) FROM t WHERE n < 2 AND n > 4")
        assert stats.startree_used
        assert stats.startree_docs_scanned == 0
        assert response.rows == [(0, float("inf"))]
