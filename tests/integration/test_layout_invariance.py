"""Layout invariance through the cluster (ROADMAP F(1)).

The same rows, cut into 1, 2 or 7+ segments and hosted on 1 or 3
servers, give the same ``rows`` — and the scalar engine's — for every
query shape whose answer the layout does not define: the three
``wide_state`` shapes, a multi-key TOP-n with ties at the cut-off,
ORDER BY mixed ASC / DESC over int, float and string columns with an
OFFSET, HAVING. Sums are over integers, so no association of the
additions can change them.

Also here, because they are about what reaches the client: ORDER BY a
column the select list lacks (it used to be a bare ``ValueError``), an
unknown ORDER BY column and a numeric aggregate over a STRING column
(both a flagged partial response, like any column a server cannot
plan).
"""

import random

import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column

NUM_ROWS = 420

QUERIES = [
    # The wide_state shapes of the benchmark.
    "SELECT distinctcount(viewer) FROM views WHERE day BETWEEN 102 AND 108 "
    "AND viewee <> 3",
    "SELECT sum(views) FROM views WHERE day BETWEEN 100 AND 109 "
    "AND viewee <> 5 GROUP BY viewer TOP 20",
    "SELECT viewer, viewee, day FROM views WHERE viewee <> 2 "
    "ORDER BY viewer, viewee, day LIMIT 50",
    # Counts are small: whole runs of groups tie at the cut-off.
    "SELECT count(*) FROM views GROUP BY region, day TOP 7",
    "SELECT count(*), max(views) FROM views GROUP BY region, viewee "
    "ORDER BY count(*) DESC, viewee DESC TOP 9",
    "SELECT region, score, viewer FROM views "
    "ORDER BY region DESC, score, viewer DESC LIMIT 15, 25",
    "SELECT day, region FROM views WHERE views > 2 "
    "ORDER BY day DESC, region LIMIT 3, 30",
    "SELECT sum(views), count(*), avg(views) FROM views GROUP BY viewer "
    "HAVING count(*) >= 10 AND sum(views) < 60 "
    "ORDER BY sum(views) DESC, viewer TOP 12",
    "SELECT minmaxrange(views), percentile50(views) FROM views "
    "GROUP BY timebucket(day, 3) TOP 5",
    # ORDER BY columns the projection lacks.
    "SELECT viewer FROM views ORDER BY region DESC, viewer LIMIT 30",
]


@pytest.fixture(scope="module")
def schema():
    return Schema("views", [
        dimension("viewee", DataType.LONG), dimension("viewer", DataType.LONG),
        dimension("region"), metric("views", DataType.LONG),
        metric("score", DataType.DOUBLE), time_column("day", DataType.INT),
    ])


@pytest.fixture(scope="module")
def records():
    rng = random.Random(23)
    return [
        {"viewee": rng.randrange(8), "viewer": rng.randrange(40),
         "region": rng.choice(["apac", "emea", "latam", "na"]),
         "views": rng.randint(1, 5), "score": rng.randrange(20) / 8,
         "day": 100 + rng.randrange(10)}
        for __ in range(NUM_ROWS)
    ]


def cluster_of(schema, records, rows_per_segment, num_servers):
    cluster = PinotCluster(num_servers=num_servers)
    cluster.create_table(TableConfig.offline("views", schema))
    cluster.upload_records("views", records,
                           rows_per_segment=rows_per_segment)
    return cluster


@pytest.fixture(scope="module")
def layouts(schema, records):
    return {
        (per_segment, servers): cluster_of(schema, records, per_segment,
                                           servers)
        for per_segment in (NUM_ROWS, NUM_ROWS // 2, NUM_ROWS // 7)
        for servers in (1, 3)
    }


@pytest.mark.parametrize("text", QUERIES)
def test_rows_do_not_depend_on_the_layout(layouts, text):
    want = None
    for layout, cluster in layouts.items():
        for option in ("", " OPTION(vectorized=false)"):
            response = cluster.execute(text + option)
            assert not response.is_partial, (layout, response.exceptions)
            assert response.rows, layout
            if want is None:
                want = response.rows
            assert response.rows == want, (layout, option)
            assert all(type(cell) in (int, float, str)
                       for row in response.rows for cell in row)


def test_order_by_a_column_that_is_not_selected(layouts, records):
    want = [(r["viewer"],) for r in sorted(
        records, key=lambda r: ([-ord(c) for c in r["region"]], r["viewer"])
    )][:30]
    for cluster in layouts.values():
        response = cluster.execute(QUERIES[-1])
        assert response.table.columns == ("viewer",)
        assert response.rows == want


@pytest.mark.parametrize("text,complaint", [
    ("SELECT viewer FROM views ORDER BY nope LIMIT 3", "nope"),
    ("SELECT sum(region) FROM views", "'region' is STRING"),
    ("SELECT max(region) FROM views GROUP BY day TOP 3", "'region' is STRING"),
    ("SELECT percentile50(region) FROM views WHERE viewee = 1",
     "'region' is STRING"),
])
def test_what_a_server_cannot_plan_is_a_flagged_partial(layouts, text,
                                                        complaint):
    cluster = layouts[(NUM_ROWS // 2, 3)]
    for option in ("", " OPTION(vectorized=false)"):
        response = cluster.execute(text + option)
        assert response.is_partial
        assert response.exceptions
        assert all(complaint in e for e in response.exceptions)
