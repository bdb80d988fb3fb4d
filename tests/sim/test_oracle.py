"""Unit tests for the simulation harness's query oracle."""

import math

from repro.pql.parser import parse
from repro.sim.oracle import (diff_summary, expected_rows, reduce_per_key,
                              rows_match)


RECORDS = [
    {"country": "us", "platform": "ios", "memberId": 1, "views": 3,
     "day": 17000},
    {"country": "us", "platform": "android", "memberId": 2, "views": 1,
     "day": 17001},
    {"country": "de", "platform": "ios", "memberId": 1, "views": 4,
     "day": 17002},
    {"country": "de", "platform": "desktop", "memberId": 3, "views": 2,
     "day": 17002},
]


class TestPlainAggregations:
    def test_count_star(self):
        rows = expected_rows(parse("SELECT count(*) FROM t"), RECORDS)
        assert rows == [(4,)]

    def test_multi_aggregation_row_shape(self):
        rows = expected_rows(
            parse("SELECT sum(views), count(*), avg(views) FROM t"),
            RECORDS,
        )
        assert rows == [(10.0, 4, 2.5)]

    def test_min_max_are_floats(self):
        rows = expected_rows(parse("SELECT min(day), max(day) FROM t"),
                             RECORDS)
        assert rows == [(17000.0, 17002.0)]

    def test_distinctcount(self):
        rows = expected_rows(
            parse("SELECT distinctcount(memberId) FROM t"), RECORDS)
        assert rows == [(3,)]

    def test_where_filters_before_aggregation(self):
        rows = expected_rows(
            parse("SELECT count(*) FROM t WHERE country = 'de'"), RECORDS)
        assert rows == [(2,)]

    def test_empty_match_mirrors_engine_identities(self):
        """The engine finalizes empty aggregations to (0, 0.0, inf,
        -inf, 0.0, 0); the oracle must agree exactly."""
        query = parse("SELECT count(*), sum(views), min(views), "
                      "max(views), avg(views), distinctcount(views) "
                      "FROM t WHERE country = 'xx'")
        assert expected_rows(query, RECORDS) == [
            (0, 0.0, math.inf, -math.inf, 0.0, 0)
        ]


class TestGroupBy:
    def test_orders_by_first_aggregate_desc_then_key(self):
        rows = expected_rows(
            parse("SELECT sum(views) FROM t GROUP BY country"), RECORDS)
        assert rows == [("de", 6.0), ("us", 4.0)]

    def test_tie_broken_by_group_key_ascending(self):
        rows = expected_rows(
            parse("SELECT count(*) FROM t GROUP BY platform TOP 10"),
            RECORDS,
        )
        assert rows == [("ios", 2), ("android", 1), ("desktop", 1)]

    def test_top_n_window(self):
        rows = expected_rows(
            parse("SELECT count(*) FROM t GROUP BY platform TOP 1"),
            RECORDS,
        )
        assert rows == [("ios", 2)]


class TestRowComparison:
    def test_float_tolerance(self):
        assert rows_match([(0.1 + 0.2,)], [(0.3,)])

    def test_length_mismatch(self):
        assert not rows_match([(1,)], [(1,), (2,)])

    def test_value_mismatch(self):
        assert not rows_match([("us", 3.0)], [("us", 4.0)])

    def test_diff_summary_names_first_difference(self):
        text = diff_summary([(1,)], [(2,)])
        assert "expected (2,)" in text and "got (1,)" in text


class TestReducePerKey:
    STREAM = [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 1, "v": "c"},
              {"k": 3, "v": "d"}, {"k": 2, "v": "e"}]

    def test_upsert_keeps_the_last_row_per_key(self):
        kept = reduce_per_key(self.STREAM, "k", "upsert")
        assert [row["v"] for row in kept] == ["c", "e", "d"]

    def test_dedup_keeps_the_first_row_per_key(self):
        kept = reduce_per_key(self.STREAM, "k", "dedup")
        assert [row["v"] for row in kept] == ["a", "b", "d"]

    def test_no_mode_keeps_every_row(self):
        kept = reduce_per_key(self.STREAM, "k", None)
        assert kept == self.STREAM
        assert kept is not self.STREAM
