#!/usr/bin/env python3
"""Parity suite over the fig11 / fig14 query logs, with a liveness
ratio as its by-product.

**The speedup this prints is not a performance claim.** Its denominator
is the scalar oracle, which is slow on purpose (per-row Python, no
planner, no index), so "hundreds of x" says only that no kernel fell
back to a Python loop; a 100x regression of the batch engine would
still pass ``--min-speedup 3``. How fast a query is, end to end and per
layer, is ``benchmarks/e2e`` (``BENCHMARK.json``) and nothing else.

Runs the fig11 (anomaly) and fig14 (share analytics) query logs at a
reduced, CI-friendly scale through two single-process executors over
identical segments:

* ``vectorized`` — the numpy batch-kernel engine (selection vectors,
  late materialization, grouped kernels);
* ``scalar``     — the row-at-a-time Python oracle
  (``OPTION(vectorized=false)``).

Results are cross-checked for exact agreement first (we only compare
the performance of *correct* engines), then timed, and a
machine-readable summary is written to ``BENCH_engine.json``.  Any
per-figure JSON summaries already present under ``benchmarks/results/``
(written by the pytest-benchmark figures via ``write_report``) are
folded in under ``"satellites"``.

CI gate: the run fails (exit 1) when the two engines disagree on any
query, or when the per-figure p50 ratio of scalar over vectorized time
drops below ``--min-speedup`` (default 3x) — the "did a kernel turn
into a row loop" check above, not a ratchet.

Deliberately no timestamps in the output: the committed file should
only churn when the numbers move.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import (  # noqa: E402
    compile_queries,
    make_segment_executor,
    measure,
    verify_engines_agree,
)
from repro.segment.builder import SegmentBuilder  # noqa: E402

SCHEMA_VERSION = 1
#: Written into the report so the committed number carries its caveat.
READING = ("parity-suite by-product: vectorized vs the deliberately slow "
           "scalar oracle; not a performance claim (see benchmarks/e2e)")
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def _build_figure(name, workload, num_rows, num_queries, segment_config):
    rows = workload.generate_records(num_rows)
    queries = compile_queries(workload.generate_queries(num_queries))
    builder = SegmentBuilder(f"{name}_bench", name, workload.schema(),
                             segment_config)
    builder.add_all(rows)
    segment = builder.build()
    # Star-tree pre-aggregation would answer some queries without
    # touching the batch kernels at all; disable it so both engines run
    # their actual filter/aggregate paths over the same data.
    engines = {
        "vectorized": make_segment_executor([segment],
                                            allow_star_tree=False),
        "scalar": make_segment_executor([segment], allow_star_tree=False,
                                        vectorized=False),
    }
    return engines, queries


def _summarize(workload) -> dict:
    times_ms = workload.service_times_s * 1e3
    return {
        "p50_ms": round(float(np.percentile(times_ms, 50)), 4),
        "p95_ms": round(float(np.percentile(times_ms, 95)), 4),
        "mean_ms": round(float(times_ms.mean()), 4),
        "samples": int(times_ms.size),
    }


def _bench_figure(engines, queries, vec_repeats: int) -> dict:
    verify_engines_agree(queries, engines, sample=len(queries))
    # The scalar oracle is orders of magnitude slower; one pass gives a
    # stable p50 while the vectorized engine gets extra repeats to
    # resolve sub-millisecond timings.
    vectorized = measure("vectorized", engines["vectorized"], queries,
                         repeats=vec_repeats)
    scalar = measure("scalar", engines["scalar"], queries, repeats=1)
    vec_summary = _summarize(vectorized)
    sca_summary = _summarize(scalar)
    return {
        "vectorized": vec_summary,
        "scalar": sca_summary,
        "speedup": {
            "p50": round(sca_summary["p50_ms"] / vec_summary["p50_ms"], 2),
            "p95": round(sca_summary["p95_ms"] / vec_summary["p95_ms"], 2),
            "mean": round(sca_summary["mean_ms"] / vec_summary["mean_ms"],
                          2),
        },
    }


def _collect_satellites() -> dict:
    satellites = {}
    if RESULTS_DIR.is_dir():
        for path in sorted(RESULTS_DIR.glob("*.json")):
            try:
                satellites[path.stem] = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # a partial write must not sink the gate run
    return satellites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_engine.json"),
                        help="output path for the JSON report")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail unless vectorized p50 beats scalar "
                             "p50 by this factor on every figure")
    parser.add_argument("--anomaly-rows", type=int, default=60_000)
    parser.add_argument("--shares-rows", type=int, default=50_000)
    parser.add_argument("--queries", type=int, default=30,
                        help="queries sampled per figure's log")
    parser.add_argument("--repeats", type=int, default=3,
                        help="vectorized timing passes per query")
    args = parser.parse_args()

    from repro.workloads import anomaly, share_analytics

    specs = {
        "fig11_anomaly": (anomaly, args.anomaly_rows,
                          anomaly.segment_config("inverted")),
        "fig14_shares": (share_analytics, args.shares_rows,
                         share_analytics.segment_config()),
    }
    figures = {}
    for name, (workload, num_rows, segment_config) in specs.items():
        print(f"[{name}] building {num_rows} rows, "
              f"{args.queries} queries ...", flush=True)
        engines, queries = _build_figure(name, workload, num_rows,
                                         args.queries, segment_config)
        figures[name] = _bench_figure(engines, queries, args.repeats)
        result = figures[name]
        print(f"[{name}] vectorized p50={result['vectorized']['p50_ms']}ms"
              f" scalar p50={result['scalar']['p50_ms']}ms"
              f" speedup={result['speedup']['p50']}x", flush=True)

    achieved = min(f["speedup"]["p50"] for f in figures.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "anomaly_rows": args.anomaly_rows,
            "shares_rows": args.shares_rows,
            "queries_per_figure": args.queries,
            "vectorized_repeats": args.repeats,
        },
        "figures": figures,
        "gate": {
            "metric": "min over figures of p50 speedup",
            "reading": READING,
            "min_speedup": args.min_speedup,
            "achieved": achieved,
            "pass": achieved >= args.min_speedup,
        },
        "satellites": _collect_satellites(),
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) +
                        "\n")
    print(f"wrote {out_path}")
    if not report["gate"]["pass"]:
        print(f"GATE FAILED: speedup {achieved}x < "
              f"{args.min_speedup}x minimum", file=sys.stderr)
        return 1
    print(f"gate OK: {achieved}x >= {args.min_speedup}x ({READING})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
