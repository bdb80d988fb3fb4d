#!/usr/bin/env python3
"""Benchmark the smart-approximation surface: sketch aggregations vs
their exact counterparts, and timestamp-index rollups vs raw scans.

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
  segment's pre-aggregated timestamp-index rollup, with the grouped
  states cross-checked for exact equality.

A machine-readable summary is written to ``BENCH_approx.json``. CI
gates: each leg's speedup must reach ``--min-speedup`` (default 5x),
the HLL estimate must sit within 3 standard errors of the exact count,
the sketch's quantile estimate must land inside its own declared rank
error of the target quantile, and the rollup must reproduce the scan's
groups exactly. Deliberately no timestamps in the output: the
committed file should only churn when the numbers move.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.common.schema import Schema  # noqa: E402
from repro.common.types import DataType, dimension, metric, \
    time_column  # noqa: E402
from repro.engine.aggregates import _FUNCTIONS, function_for  # noqa: E402
from repro.engine.planner import PlanKind, plan_segment  # noqa: E402
from repro.engine.executor import execute_plan  # noqa: E402
from repro.engine.sketches import HyperLogLog  # noqa: E402
from repro.net.codec import decode, encode, json_roundtrip, \
    payload_bytes  # noqa: E402
from repro.pql.ast_nodes import AggFunc  # noqa: E402
from repro.pql.parser import parse  # noqa: E402
from repro.segment.builder import SegmentBuilder, SegmentConfig  # noqa: E402

SCHEMA_VERSION = 1


def _best_of(fn, repeats: int):
    """(best wall seconds, last return value) over ``repeats`` runs."""
    best = math.inf
    value = None
    for __ in range(repeats):
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


def bench_distinct(rows: int, segments: int, cardinality: int,
                   seed: int, repeats: int) -> dict:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, cardinality, size=rows)
    chunks = np.array_split(values, segments)
    exact_fn = _FUNCTIONS[AggFunc.DISTINCTCOUNT]
    approx_fn = _FUNCTIONS[AggFunc.DISTINCTCOUNTHLL]

    exact_s, (exact_state, exact_bytes) = _best_of(
        lambda: _scatter_gather(exact_fn, chunks), repeats)
    approx_s, (approx_state, approx_bytes) = _best_of(
        lambda: _scatter_gather(approx_fn, chunks), repeats)
    exact = exact_fn.finalize(exact_state)
    estimate = approx_fn.finalize(approx_state)

    error = abs(estimate - exact) / max(1, exact)
    bound = 3 * HyperLogLog(approx_fn.precision).relative_error
    return {
        "rows": rows,
        "exact_value": int(exact),
        "estimate": int(estimate),
        "exact_state_bytes": exact_bytes,
        "approx_state_bytes": approx_bytes,
        "exact_ms": round(exact_s * 1000, 3),
        "approx_ms": round(approx_s * 1000, 3),
        "speedup": round(exact_s / approx_s, 2),
        "observed_rel_error": round(error, 5),
        "error_bound": round(bound, 5),
        "within_bound": error <= bound,
    }


def bench_percentile(rows: int, segments: int, seed: int,
                     repeats: int, quantile: float = 95.0) -> dict:
    rng = np.random.default_rng(seed + 1)
    values = rng.lognormal(mean=3.0, sigma=1.2, size=rows)
    chunks = np.array_split(values, segments)
    exact_fn = _FUNCTIONS[AggFunc.PERCENTILE95]
    approx_fn = _FUNCTIONS[AggFunc.PERCENTILEEST95]

    exact_s, (exact_state, exact_bytes) = _best_of(
        lambda: _scatter_gather(exact_fn, chunks), repeats)
    approx_s, (merged, approx_bytes) = _best_of(
        lambda: _scatter_gather(approx_fn, chunks), repeats)
    exact = exact_fn.finalize(exact_state)
    estimate = approx_fn.finalize(merged)

    # Error is measured in *rank* space — the guarantee a quantile
    # sketch actually makes: the estimate's rank among the true values
    # must sit within the sketch's own declared bound of the target.
    ordered = np.sort(values)
    observed_rank = float(np.searchsorted(ordered, estimate,
                                          side="right")) / rows
    rank_error = abs(observed_rank - quantile / 100.0)
    bound = merged.rank_error_bound() + 1.0 / rows
    return {
        "rows": rows,
        "quantile": quantile,
        "exact_value": round(float(exact), 4),
        "estimate": round(float(estimate), 4),
        "retained_items": merged.num_retained,
        "exact_state_bytes": exact_bytes,
        "approx_state_bytes": approx_bytes,
        "exact_ms": round(exact_s * 1000, 3),
        "approx_ms": round(approx_s * 1000, 3),
        "speedup": round(exact_s / approx_s, 2),
        "observed_rank_error": round(rank_error, 5),
        "rank_error_bound": round(bound, 5),
        "within_bound": rank_error <= bound,
    }


def bench_timeindex(rows: int, days: int, seed: int,
                    repeats: int) -> dict:
    rng = np.random.default_rng(seed + 2)
    schema = Schema("bench_events", [
        dimension("memberId", DataType.LONG),
        metric("views", DataType.LONG),
        time_column("day", DataType.INT),
    ])
    member = rng.integers(0, 10_000, size=rows)
    views = rng.integers(1, 50, size=rows)
    day = rng.integers(17_000, 17_000 + days, size=rows)
    records = [
        {"memberId": int(member[i]), "views": int(views[i]),
         "day": int(day[i])}
        for i in range(rows)
    ]
    builder = SegmentBuilder("bench_seg_0", "bench_events_OFFLINE", schema,
                             SegmentConfig(timestamp_index=(1,)))
    builder.add_all(records)
    segment = builder.build()

    query = parse("SELECT count(*), sum(views), avg(views) "
                  "FROM bench_events GROUP BY day TOP 1000")
    rollup_plan = plan_segment(segment, query)
    scan_plan = plan_segment(segment, query, allow_time_index=False)
    assert rollup_plan.kind is PlanKind.TIME_INDEX, rollup_plan.kind
    assert scan_plan.kind is PlanKind.SCAN, scan_plan.kind

    scan_s, scan_result = _best_of(lambda: execute_plan(scan_plan),
                                   repeats)
    rollup_s, rollup_result = _best_of(lambda: execute_plan(rollup_plan),
                                       repeats)

    # Rollups must be indistinguishable from the scan: same groups,
    # same finalized value for every aggregation.
    scan_groups = scan_result.group_by.groups(query.aggregations)
    rollup_groups = rollup_result.group_by.groups(query.aggregations)
    groups_match = set(scan_groups) == set(rollup_groups)
    if groups_match:
        for key, scan_states in scan_groups.items():
            for agg, a, b in zip(query.aggregations, scan_states,
                                 rollup_groups[key]):
                func = function_for(agg)
                if not math.isclose(float(func.finalize(a)),
                                    float(func.finalize(b)),
                                    rel_tol=1e-9, abs_tol=1e-9):
                    groups_match = False
    return {
        "rows": rows,
        "days": days,
        "groups": len(scan_groups),
        "scan_ms": round(scan_s * 1000, 3),
        "rollup_ms": round(rollup_s * 1000, 3),
        "speedup": round(scan_s / rollup_s, 2),
        "groups_match_scan": groups_match,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_approx.json"),
                        help="output path for the JSON report")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail unless every leg reaches this "
                             "approx-over-exact speedup")
    parser.add_argument("--rows", type=int, default=200_000,
                        help="rows for the sketch legs")
    parser.add_argument("--segment-rows", type=int, default=120_000,
                        help="rows for the timestamp-index segment")
    parser.add_argument("--segments", type=int, default=8)
    parser.add_argument("--cardinality", type=int, default=100_000)
    parser.add_argument("--days", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    legs = {}
    print(f"[distinct] {args.rows} rows, cardinality "
          f"{args.cardinality} ...", flush=True)
    legs["distinct"] = bench_distinct(args.rows, args.segments,
                                      args.cardinality, args.seed,
                                      args.repeats)
    print(f"[distinct] speedup={legs['distinct']['speedup']}x "
          f"error={legs['distinct']['observed_rel_error']}", flush=True)

    print(f"[percentile] {args.rows} rows ...", flush=True)
    legs["percentile"] = bench_percentile(args.rows, args.segments,
                                          args.seed, args.repeats)
    print(f"[percentile] speedup={legs['percentile']['speedup']}x "
          f"rank_error={legs['percentile']['observed_rank_error']}",
          flush=True)

    print(f"[timeindex] {args.segment_rows} rows over {args.days} "
          f"days ...", flush=True)
    legs["timeindex"] = bench_timeindex(args.segment_rows, args.days,
                                        args.seed, args.repeats)
    print(f"[timeindex] speedup={legs['timeindex']['speedup']}x "
          f"groups={legs['timeindex']['groups']}", flush=True)

    speedups = {name: leg["speedup"] for name, leg in legs.items()}
    in_bounds = (legs["distinct"]["within_bound"]
                 and legs["percentile"]["within_bound"]
                 and legs["timeindex"]["groups_match_scan"])
    gate_pass = (min(speedups.values()) >= args.min_speedup
                 and in_bounds)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "rows": args.rows,
            "segment_rows": args.segment_rows,
            "segments": args.segments,
            "cardinality": args.cardinality,
            "days": args.days,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        "legs": legs,
        "gate": {
            "min_speedup": args.min_speedup,
            "speedups": speedups,
            "errors_within_bounds": in_bounds,
            "pass": gate_pass,
        },
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) +
                        "\n")
    print(f"wrote {out_path}")
    if not gate_pass:
        print(f"GATE FAILED: speedups {speedups} "
              f"(min {args.min_speedup}x), "
              f"errors_within_bounds={in_bounds}", file=sys.stderr)
        return 1
    print(f"gate OK: speedups {speedups}, all errors within declared "
          f"bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
