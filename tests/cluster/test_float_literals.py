"""A FLOAT column compares a query literal as the float32 it rounds to.

A FLOAT cell is stored as the float32 nearest it, so ``0.1`` is stored
as ``0.10000000149011612``. The literal ``0.1`` in ``WHERE f = 0.1``
must be rounded by the same rule in every place that holds it against
the column: the vectorized engine, the scalar reference and the
server's zone-map prune. Otherwise the row is missed, and the segment
is pruned as out of range.
"""

import numpy as np
import pytest

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import TableConfig
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric
from repro.segment.builder import SegmentConfig

STORED = float(np.float32(0.1))


@pytest.fixture
def cluster():
    schema = Schema("t", [dimension("k"), metric("f", DataType.FLOAT),
                          metric("d", DataType.DOUBLE)])
    cluster = PinotCluster(num_servers=2)
    cluster.create_table(TableConfig.offline("t", schema))
    cluster.upload_records("t", [{"k": "a", "f": 0.1, "d": 0.1},
                                 {"k": "b", "f": 0.5, "d": 0.5}],
                           rows_per_segment=1)
    return cluster


@pytest.mark.parametrize("where", [
    "f = 0.1", "f <= 0.1", "f IN (0.1, 7)", "f BETWEEN 0.1 AND 0.1",
    "f = 0.10000000001", "d = 0.1",
])
@pytest.mark.parametrize("options", [
    "", " OPTION(vectorized=false)", " OPTION(skipPrune=true)",
])
def test_float_literal_matches_the_stored_cell(cluster, where, options):
    response = cluster.execute(
        f"SELECT count(*) FROM t WHERE {where}{options}")
    assert response.rows == [(1,)]


def test_min_is_the_stored_value(cluster):
    assert DataType.FLOAT.coerce(0.1) == STORED
    assert cluster.execute("SELECT min(f) FROM t").rows == [(STORED,)]
    assert cluster.execute("SELECT min(d) FROM t").rows == [(0.1,)]


def test_zone_map_keeps_the_matching_segment(cluster):
    plans = cluster.explain("SELECT count(*) FROM t WHERE f = 0.1")
    descriptions = [d for server in plans.values() for d in server.values()]
    assert descriptions.count("PRUNED (zone_map)") == 1
    assert sum(d.startswith("SCAN") for d in descriptions) == 1


@pytest.mark.parametrize("where, count", [
    ("f < 1e300", 2), ("f > -1e300", 2), ("f = 1e300", 0),
    ("f IN (1e300, -1e300)", 0),
])
def test_literal_beyond_float32_range_is_an_infinity(cluster, where,
                                                     count):
    for options in ("", " OPTION(vectorized=false)"):
        response = cluster.execute(
            f"SELECT count(*) FROM t WHERE {where}{options}")
        assert not response.is_partial
        assert response.rows == [(count,)]


def test_broker_bloom_holds_the_rounded_literal():
    """16777217 is stored as the float32 16777216.0: the broker's bloom
    must be probed with that, not with the integer as written."""
    schema = Schema("t", [dimension("k"), dimension("f", DataType.FLOAT)])
    cluster = PinotCluster(num_servers=2)
    cluster.create_table(TableConfig.offline(
        "t", schema, segment_config=SegmentConfig(bloom_columns=("f",))))
    cluster.upload_records("t", [{"k": "a", "f": 16777217},
                                 {"k": "b", "f": 0.5}], rows_per_segment=1)
    for literal in (16777217, 16777216):
        response = cluster.execute(
            f"SELECT count(*) FROM t WHERE f = {literal}")
        assert response.rows == [(1,)]
        # The 0.5 segment is still pruned by its bloom for an integer
        # float32 holds exactly.
        assert response.num_segments_pruned_by_broker == (
            literal == 16777216)
