#!/usr/bin/env python3
"""CI check: every traced layer of the benchmark is still being called.

``benchmarks/e2e/tracing.py`` patches each layer's callable where its
caller looks it up. The harness tests check the metric *names*; nothing
fails when a refactor leaves a patched callable in place but no longer
calls it — the layer just reports 0 µs from then on. This runs one
small traced run per workload and fails if a layer every query must
pass through, or a layer that workload's own ops must pass through
(the realtime path on ``ingest_query_mix``), reports no self time, or
if the spans explain less than 90 % of the query wall time.

The same runs feed the first gate that ratchets: at a fixed scale and
seed the count-valued layer metrics repeat exactly, so
``ci_layer_ceilings.json`` holds their committed values per workload
and a run that reads *higher* fails. A run that reads more than 2 %
lower prints a note to lower the ceiling (``--write-ceilings`` rewrites
the file from this run).

    python scripts/ci_layer_liveness.py [--write-ceilings]
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("point_lookup", "scan_groupby", "wide_state", "ingest_query_mix")
#: Layers no query can avoid: a 0 here means the patch point went dead.
#: ``cluster.table`` (``TableConfig.from_dict``) is not one of them: a
#: table's config is parsed once per change of its znode and every
#: query after that reads the parsed copy, so it rightly reads 0.
LIVE_LAYERS = (
    "pql.parser", "net.codec.encode", "net.codec.decode",
    "net.transport", "cluster.server", "cache.pruner", "engine.planner",
    "engine.executor", "engine.merge.combine", "engine.merge.reduce",
)
#: Per workload, layers its non-query ops cannot avoid, by metric name.
#: ``ingest_query_mix`` produces through ``SimKafka.produce_all``, polls
#: in ``ServerInstance.consume_tick`` and indexes through
#: ``MutableSegment.index_all``: if ``PinotCluster.ingest`` stopped
#: calling the patched name, ``kafka`` would read 0 with no other sign.
WORKLOAD_LIVE_METRICS = {
    "ingest_query_mix": (
        "kafka.self_us_per_krow",
        "cluster.server.consume.self_us_per_krow",
        "segment.mutable.index.self_us_per_krow",
    ),
}
MIN_COVERAGE = 0.9
CEILINGS = pathlib.Path(__file__).with_name("ci_layer_ceilings.json")
#: Counts, not times: exact for a seed, so they can gate.
COUNT_METRICS = (
    "net.codec.wire_bytes_per_op", "net.codec.encode.calls_per_op",
    "net.codec.decode.calls_per_op", "engine.planner.calls_per_op",
    "zk.store.reads_per_op", "cluster.broker.servers_per_op",
    # What the engine was asked to do, not how fast it did it: a change
    # to its kernels must leave these where they were.
    "engine.executor.calls_per_op", "engine.executor.docs_scanned_per_op",
    "engine.executor.entries_in_filter_per_op",
    # How often a consuming segment was refreshed and how many segments
    # went through SegmentBuilder.build: a faster realtime path must
    # still take both the same number of times.
    "segment.mutable.snapshot.calls_per_op", "segment.builder.seals_per_krow",
)


def traced_metrics(workload: str) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--trace", "1",
         "--scale", "0.05", "--seconds", "0.5"],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    if not report["correct"] or report["failed"]:
        raise SystemExit(f"{workload}: run failed: {report}")
    return {name: cell["value"] for name, cell in report["metrics"].items()}


def main() -> int:
    problems = []
    readings = {}
    ceilings = json.loads(CEILINGS.read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        metrics = traced_metrics(workload)
        readings[workload] = {name: metrics[name] for name in COUNT_METRICS}
        for name, ceiling in ceilings[workload].items():
            value = metrics[name]
            if value > ceiling * (1 + 1e-9):
                problems.append(f"{workload}: {name} reads {value:.2f}, "
                                f"above its ceiling {ceiling:.2f}")
            elif value < ceiling * 0.98:
                print(f"note: {workload}: {name} reads {value:.2f}; "
                      f"lower the ceiling ({ceiling:.2f})")
        live = [f"{layer}.self_us_per_op" for layer in LIVE_LAYERS]
        live += WORKLOAD_LIVE_METRICS.get(workload, ())
        for name in live:
            if not metrics[name] > 0:
                problems.append(f"{workload}: {name} reports no self time")
        coverage = metrics["trace.coverage_ratio"]
        if coverage < MIN_COVERAGE:
            problems.append(f"{workload}: trace.coverage_ratio "
                            f"{coverage:.3f} < {MIN_COVERAGE}")
        print(f"{workload}: coverage {coverage:.3f}, "
              f"{len(live)} layers checked")
    if "--write-ceilings" in sys.argv[1:]:
        CEILINGS.write_text(json.dumps(readings, indent=2) + "\n",
                            encoding="utf-8")
        print(f"wrote {CEILINGS}")
        return 0
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
