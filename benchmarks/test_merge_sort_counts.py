"""Sorts and merges on integer keys take no ``lexsort`` and no
``np.unique``.

The ``wide_state`` shapes of the end-to-end benchmark, on a 3-server
cluster with the same table (6 000 WVMP rows in 6 segments):

* ``SELECT viewerId, vieweeId, day ... ORDER BY viewerId, vieweeId,
  day LIMIT 500`` orders rows ten times per query — per segment, per
  server combine and once at the broker. Every ORDER BY column is an
  integer, so every one of those sorts is one stable ``argsort`` on a
  packed key: zero ``numpy.lexsort`` calls per query.
* ``SELECT sum(views) ... GROUP BY viewerId TOP 20`` merges one group
  per viewer at each server and at the broker. An integer key column is
  numbered by presence (``value - min`` codes through
  ``combine_codes``): zero ``numpy.unique`` calls inside the merges.

Counts are exact for the data, so these are hard gates; the report
also prints them per shape.
"""

import numpy as np
import pytest

from benchmarks._common import write_report
from repro.cluster import broker, server
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.workloads import wvmp

NUM_ROWS = 6_000
NUM_SEGMENTS = 6
DATA_SEED = 31
#: (first day, window length, excluded viewee) per query.
WINDOWS = [(wvmp.FIRST_DAY, 20, 11), (wvmp.FIRST_DAY + 4, 24, 12),
           (wvmp.FIRST_DAY, wvmp.NUM_DAYS, 13)]


def where(start, length, viewee):
    return (f"FROM wvmp WHERE day BETWEEN {start} AND {start + length - 1} "
            f"AND vieweeId <> {viewee}")


class Counter:
    """Counts calls of a numpy function, always or only while one of the
    merge levels runs."""

    def __init__(self, monkeypatch, name, merges_only=False):
        self.calls = 0
        self.merging = 0
        real = getattr(np, name)

        def counting(*args, **kwargs):
            if self.merging or not merges_only:
                self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
        if merges_only:
            for module, merge in ((server, "combine_segment_results"),
                                  (broker, "reduce_server_results")):
                monkeypatch.setattr(module, merge,
                                    self.merge_level(getattr(module, merge)))

    def merge_level(self, merge):
        def counted(*args, **kwargs):
            self.merging += 1
            try:
                return merge(*args, **kwargs)
            finally:
                self.merging -= 1
        return counted


@pytest.fixture(scope="module")
def cluster():
    records = wvmp.generate_records(NUM_ROWS, seed=DATA_SEED)
    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline("wvmp", wvmp.schema()))
    per_segment = NUM_ROWS // NUM_SEGMENTS
    for first in range(0, NUM_ROWS, per_segment):
        cluster.upload_records("wvmp", records[first:first + per_segment],
                               rows_per_segment=per_segment)
    return cluster, records


def run(cluster, text):
    response = cluster.execute(text + " OPTION(skipCache=true)")
    assert not response.is_partial
    assert response.num_servers_responded == 3
    return response


def test_integer_sort_and_group_merge_counts(cluster, monkeypatch):
    cluster, records = cluster
    report = []

    lexsorts = Counter(monkeypatch, "lexsort")
    for start, length, viewee in WINDOWS:
        text = (f"SELECT viewerId, vieweeId, day {where(start, length, viewee)}"
                f" ORDER BY viewerId, vieweeId, day LIMIT 500")
        rows = run(cluster, text).rows
        want = sorted((r["viewerId"], r["vieweeId"], r["day"])
                      for r in records
                      if start <= r["day"] < start + length
                      and r["vieweeId"] != viewee)[:500]
        assert rows == want
    report.append(f"ORDER BY viewerId, vieweeId, day LIMIT 500: "
                  f"{lexsorts.calls / len(WINDOWS):g} numpy.lexsort per query")
    assert lexsorts.calls == 0

    uniques = Counter(monkeypatch, "unique", merges_only=True)
    for start, length, viewee in WINDOWS:
        text = (f"SELECT sum(views) {where(start, length, viewee)} "
                f"GROUP BY viewerId TOP 20")
        rows = run(cluster, text).rows
        assert len(rows) == 20
        assert uniques.merging == 0
    report.append(f"GROUP BY viewerId TOP 20: "
                  f"{uniques.calls / len(WINDOWS):g} numpy.unique per query "
                  f"in combine + reduce")
    write_report("merge_sort_counts", "\n".join(report))
    assert uniques.calls == 0
