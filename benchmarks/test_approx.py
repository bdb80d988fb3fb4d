"""Smart approximations: sketch aggregations vs their exact
counterparts, and timestamp-index rollups vs raw scans.

Three seeded legs (see ``docs/ENGINE.md``). The sketch legs measure the
full scatter/gather shape — per-segment partial states pass through the
``repro.net`` codec as actual JSON text before the broker-side merge —
because that boundary is exactly where exact states stop scaling:

* ``distinct``   — DISTINCTCOUNT (per-segment value sets shipped and
  unioned) vs DISTINCTCOUNTHLL (fixed 4 KiB registers, vectorized-hash
  bulk adds) over a high-cardinality id column;
* ``percentile`` — PERCENTILE95 (raw value samples shipped whole and
  sorted at finalize) vs PERCENTILEEST95 (bounded mergeable quantile
  sketch) over a skewed float column;
* ``timeindex``  — GROUP BY day answered by a raw scan vs the
  segment's pre-aggregated timestamp-index rollup.

Each leg must be at least ``MIN_SPEEDUP`` faster (best of ``REPEATS``),
and must stay correct: the HLL estimate within 3 standard errors of the
exact count, the sketch's quantile estimate inside its own declared
rank error of the target quantile, and the rollup's groups equal to the
scan's.
"""

import math
import time

import numpy as np
import pytest

from benchmarks._common import write_report
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.aggregates import _FUNCTIONS, function_for
from repro.engine.executor import execute_plan
from repro.engine.planner import PlanKind, plan_segment
from repro.net.codec import decode, encode, json_roundtrip, payload_bytes
from repro.pql.ast_nodes import AggFunc
from repro.pql.parser import parse
from repro.segment.builder import SegmentBuilder, SegmentConfig

ROWS = 200_000
SEGMENTS = 8
CARDINALITY = 100_000
SEGMENT_ROWS = 120_000
DAYS = 60
REPEATS = 3
SEED = 7
MIN_SPEEDUP = 5.0
QUANTILE = 95.0


def _best_of(fn):
    """(best wall seconds, last return value) over ``REPEATS`` runs."""
    best = math.inf
    value = None
    for __ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _scatter_gather(func, chunks):
    """The distributed aggregation shape: per-segment partial states
    shipped through the ``repro.net`` codec (actual JSON text, as a
    strict transport would), then merged the way the broker does.

    Including the serialization boundary is the point of the
    comparison — exact DISTINCTCOUNT/PERCENTILE states grow with the
    data and dominate scatter/gather cost, while sketch states stay
    bounded. Returns ``(merged_state, shipped_payload_bytes)``.
    """
    state = func.init_empty()
    shipped = 0
    for chunk in chunks:
        tree = json_roundtrip(encode(func.aggregate(chunk)))
        shipped += payload_bytes(tree)
        state = func.merge(state, decode(tree))
    return state, shipped


def _sketch_leg(exact: AggFunc, approx: AggFunc, values: np.ndarray) -> dict:
    """Time exact and sketch scatter/gather over ``values`` in
    ``SEGMENTS`` chunks; the sketch's state is kept for its bounds."""
    chunks = np.array_split(values, SEGMENTS)
    exact_fn, approx_fn = _FUNCTIONS[exact], _FUNCTIONS[approx]
    exact_s, (exact_state, exact_bytes) = _best_of(
        lambda: _scatter_gather(exact_fn, chunks))
    approx_s, (approx_state, approx_bytes) = _best_of(
        lambda: _scatter_gather(approx_fn, chunks))
    return {
        "speedup": exact_s / approx_s,
        "exact": exact_fn.finalize(exact_state),
        "estimate": approx_fn.finalize(approx_state),
        "state": approx_state,
        "bytes": (exact_bytes, approx_bytes),
    }


def _distinct_leg() -> dict:
    values = np.random.default_rng(SEED).integers(0, CARDINALITY, size=ROWS)
    leg = _sketch_leg(AggFunc.DISTINCTCOUNT, AggFunc.DISTINCTCOUNTHLL, values)
    leg["error"] = abs(leg["estimate"] - leg["exact"]) / leg["exact"]
    leg["bound"] = 3 * leg["state"].relative_error
    return leg


def _percentile_leg() -> dict:
    values = np.random.default_rng(SEED + 1).lognormal(
        mean=3.0, sigma=1.2, size=ROWS)
    leg = _sketch_leg(AggFunc.PERCENTILE95, AggFunc.PERCENTILEEST95, values)
    # Error is measured in *rank* space — the guarantee a quantile
    # sketch actually makes: the estimate's rank among the true values
    # must sit within the sketch's own declared bound of the target.
    observed_rank = float(np.searchsorted(np.sort(values), leg["estimate"],
                                          side="right")) / ROWS
    leg["rank_error"] = abs(observed_rank - QUANTILE / 100.0)
    leg["bound"] = leg["state"].rank_error_bound() + 1.0 / ROWS
    return leg


def _timeindex_leg() -> dict:
    rng = np.random.default_rng(SEED + 2)
    schema = Schema("bench_events", [
        dimension("memberId", DataType.LONG),
        metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])
    member = rng.integers(0, 10_000, size=SEGMENT_ROWS)
    views = rng.integers(1, 50, size=SEGMENT_ROWS)
    day = rng.integers(17_000, 17_000 + DAYS, size=SEGMENT_ROWS)
    builder = SegmentBuilder("bench_seg_0", "bench_events_OFFLINE", schema,
                             SegmentConfig(timestamp_index=(1,)))
    builder.add_all([
        {"memberId": int(member[i]), "views": int(views[i]),
         "day": int(day[i])}
        for i in range(SEGMENT_ROWS)
    ])
    segment = builder.build()

    query = parse("SELECT count(*), sum(views), avg(views) "
                  "FROM bench_events GROUP BY day TOP 1000")
    rollup_plan = plan_segment(segment, query)
    scan_plan = plan_segment(segment, query, allow_time_index=False)
    assert rollup_plan.kind is PlanKind.TIME_INDEX, rollup_plan.kind
    assert scan_plan.kind is PlanKind.SCAN, scan_plan.kind
    scan_s, scan_result = _best_of(lambda: execute_plan(scan_plan))
    rollup_s, rollup_result = _best_of(lambda: execute_plan(rollup_plan))

    def finalized(result):
        return {
            key: [float(function_for(agg).finalize(state))
                  for agg, state in zip(query.aggregations, states)]
            for key, states in
            result.group_by.groups(query.aggregations).items()
        }

    return {
        "speedup": scan_s / rollup_s,
        "scan": finalized(scan_result),
        "rollup": finalized(rollup_result),
    }


def test_approx_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    distinct = _distinct_leg()
    percentile = _percentile_leg()
    timeindex = _timeindex_leg()
    lines = [
        f"{ROWS} rows in {SEGMENTS} segments through the codec; "
        f"rollup leg {SEGMENT_ROWS} rows over {DAYS} days; "
        f"best of {REPEATS}",
        f"distinct:   {distinct['speedup']:.1f}x  exact={distinct['exact']} "
        f"hll={distinct['estimate']} error={distinct['error']:.4f} "
        f"(bound {distinct['bound']:.4f}) "
        f"bytes {distinct['bytes'][0]} -> {distinct['bytes'][1]}",
        f"percentile: {percentile['speedup']:.1f}x  "
        f"exact={percentile['exact']:.2f} "
        f"sketch={percentile['estimate']:.2f} "
        f"rank_error={percentile['rank_error']:.5f} "
        f"(bound {percentile['bound']:.5f}) "
        f"bytes {percentile['bytes'][0]} -> {percentile['bytes'][1]}",
        f"timeindex:  {timeindex['speedup']:.1f}x  "
        f"groups={len(timeindex['scan'])}",
    ]
    write_report("approx", "\n".join(lines))

    for leg in (distinct, percentile, timeindex):
        assert leg["speedup"] >= MIN_SPEEDUP, lines
    # The HLL estimate within 3 standard errors of the exact count.
    assert distinct["error"] <= distinct["bound"], distinct
    # The quantile estimate inside the sketch's declared rank error.
    assert percentile["rank_error"] <= percentile["bound"], percentile
    # The rollup reproduces the scan's groups and finalized values.
    scan, rollup = timeindex["scan"], timeindex["rollup"]
    assert scan.keys() == rollup.keys()
    for key, values in scan.items():
        assert rollup[key] == pytest.approx(values, rel=1e-9, abs=1e-9), key
