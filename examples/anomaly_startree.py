"""Anomaly-detection dashboards with star-tree pre-aggregation (§4.3).

Run with::

    python examples/anomaly_startree.py

Builds the multidimensional business-metrics table with a star-tree
index and shows how the planner transparently serves iceberg-style
queries from pre-aggregated records — including Fig 9's simple
predicate and Fig 10's OR + GROUP BY — while unsupported queries fall
back to raw execution, unchanged.

Self-checking: every star-tree query asserts that the tree answered it
from fewer pre-aggregated records than there are raw rows, and the
DISTINCTCOUNT query asserts the fallback.
"""

from __future__ import annotations

from repro.cluster import PinotCluster, TableConfig
from repro.workloads import anomaly


def run(cluster, pql: str, star_tree: bool = True):
    response = cluster.execute(pql)
    stats = response.stats
    path = "star-tree" if stats.startree_used else "raw scan"
    print(f"\n> {pql}")
    print(f"  [{path}; scanned {stats.num_docs_scanned} records "
          f"of {stats.total_docs} raw]")
    for row in response.rows[:5]:
        print(f"  {row}")
    assert not response.partial, response.exceptions
    assert stats.startree_used == star_tree, f"answered by {path}"
    if star_tree:
        assert 0 < stats.startree_docs_scanned < stats.total_docs
    return response


def main() -> None:
    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline(
        "anomaly", anomaly.schema(), replication=2,
        segment_config=anomaly.segment_config("startree"),
    ))
    records = anomaly.generate_records(120_000, seed=11)
    cluster.upload_records("anomaly", records, rows_per_segment=60_000)
    metric_name = records[0]["metricName"]

    # Fig 9: simple predicate, answered by navigating the star-tree.
    run(cluster,
        f"SELECT sum(value) FROM anomaly "
        f"WHERE browser = 'firefox'")

    # Fig 10: OR predicate (fused to IN by the rewriter) with GROUP BY,
    # requiring multiple tree navigations.
    run(cluster,
        "SELECT sum(value) FROM anomaly "
        "WHERE browser = 'firefox' OR browser = 'safari' "
        "GROUP BY country TOP 5")

    # The monitoring query shape: metric + day range, grouped by day.
    run(cluster,
        f"SELECT sum(value), sum(eventCount) FROM anomaly "
        f"WHERE metricName = '{metric_name}' "
        f"AND day BETWEEN {anomaly.FIRST_DAY} AND {anomaly.FIRST_DAY + 3} "
        f"GROUP BY day TOP 31")

    # DISTINCTCOUNT needs the original rows — the planner transparently
    # falls back to raw execution (§4.3: "otherwise, query execution
    # runs on the original unaggregated data").
    run(cluster,
        f"SELECT distinctcount(country) FROM anomaly "
        f"WHERE metricName = '{metric_name}'",
        star_tree=False)


if __name__ == "__main__":
    main()
