"""Benchmark harness: service-time measurement, open-loop cluster load
simulation, and plain-text reporting."""

from repro.bench.harness import (
    MeasuredWorkload,
    compile_queries,
    make_druid_executor,
    make_segment_executor,
    measure,
    measure_all,
    verify_engines_agree,
)
from repro.bench.loadsim import (
    LatencyStats,
    LoadSimConfig,
    qps_sweep,
    saturation_qps,
    simulate_open_loop,
)
from repro.bench.report import (
    render_histogram,
    render_sweep,
    render_table,
    technique_comparison,
)

__all__ = [
    "LatencyStats",
    "LoadSimConfig",
    "MeasuredWorkload",
    "compile_queries",
    "make_druid_executor",
    "make_segment_executor",
    "measure",
    "measure_all",
    "qps_sweep",
    "render_histogram",
    "render_sweep",
    "render_table",
    "saturation_qps",
    "simulate_open_loop",
    "technique_comparison",
    "verify_engines_agree",
]
