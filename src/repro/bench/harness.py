"""Measurement harness: real engine timings feeding the load simulator.

Stage 1 of every QPS-sweep figure (see DESIGN.md): execute the sampled
query log against a fully built dataset with each engine configuration,
recording per-query wall-clock service times and execution stats. The
measured distributions then drive :mod:`repro.bench.loadsim`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.results import BrokerResponse, ExecutionStats
from repro.pql.ast_nodes import Query
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.segment import ImmutableSegment

ExecuteFn = Callable[[Query], BrokerResponse]


@dataclass
class MeasuredWorkload:
    """Per-query service times (seconds) and stats for one engine."""

    name: str
    service_times_s: np.ndarray
    stats: list[ExecutionStats] = field(default_factory=list)
    responses: list[BrokerResponse] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return float(self.service_times_s.mean() * 1e3)

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.service_times_s, 99) * 1e3)


def compile_queries(queries: Sequence[str]) -> list[Query]:
    """Parse + broker-optimize a PQL log once, outside the timed loop."""
    return [optimize(parse(text)) for text in queries]


def make_segment_executor(segments: Sequence[ImmutableSegment],
                          allow_star_tree: bool = True,
                          use_cost_ordering: bool = True,
                          vectorized: bool = True) -> ExecuteFn:
    """Single-process executor over a list of Pinot segments."""

    def execute(query: Query) -> BrokerResponse:
        results = [
            execute_segment(segment, query,
                            use_cost_ordering=use_cost_ordering,
                            allow_star_tree=allow_star_tree,
                            vectorized=vectorized)
            for segment in segments
        ]
        server = combine_segment_results(query, results)
        return reduce_server_results(query, [server])

    return execute


def make_druid_executor(segments: Sequence[ImmutableSegment]) -> ExecuteFn:
    """Single-process executor using the Druid execution model."""
    from repro.druid.engine import execute_druid_segment

    def execute(query: Query) -> BrokerResponse:
        results = [
            execute_druid_segment(segment, query) for segment in segments
        ]
        server = combine_segment_results(query, results)
        return reduce_server_results(query, [server])

    return execute


def measure(name: str, execute: ExecuteFn, queries: Sequence[Query],
            repeats: int = 1, keep_responses: bool = False,
            warmup: int = 2) -> MeasuredWorkload:
    """Time every query ``repeats`` times; returns the measured workload.

    A short warmup absorbs one-time costs (forward-index unpack caches,
    on-demand inverted index builds) that a long-running server would
    have already paid.
    """
    for query in queries[:warmup]:
        execute(query)
    times = np.empty(len(queries) * repeats)
    measured = MeasuredWorkload(name, times)
    index = 0
    for __ in range(repeats):
        for query in queries:
            started = time.perf_counter()
            response = execute(query)
            times[index] = time.perf_counter() - started
            index += 1
            measured.stats.append(response.stats)
            if keep_responses:
                measured.responses.append(response)
    return measured


def _canonical_rows(rows: Sequence[tuple]) -> list[tuple]:
    """Sort rows and round floats so summation order doesn't matter."""
    def canon(cell):
        if isinstance(cell, float):
            return float(f"{cell:.9g}")  # 9 significant digits
        return cell

    return sorted(tuple(canon(c) for c in row) for row in rows)


def measure_all(engines: dict[str, ExecuteFn], queries: Sequence[Query],
                passes: int = 2, repeats: int = 1) -> dict[str, MeasuredWorkload]:
    """Measure several engines fairly: full passes alternate between
    engines and each engine keeps its *fastest* pass (by mean).

    Transient system noise (another process stealing CPU mid-run) hits
    whichever engine happens to be measuring; best-of-N with
    interleaving keeps comparisons between engines meaningful.
    """
    best: dict[str, MeasuredWorkload] = {}
    for __ in range(passes):
        for name, execute in engines.items():
            measured = measure(name, execute, queries, repeats=repeats)
            current = best.get(name)
            if current is None or measured.mean_ms < current.mean_ms:
                best[name] = measured
    return best


def verify_engines_agree(queries: Sequence[Query],
                         engines: dict[str, ExecuteFn],
                         sample: int = 20) -> None:
    """Cross-check that all engine configurations return identical
    results on a sample of the query log (a guard for the benchmarks:
    we only compare performance of *correct* engines). Rows are compared
    as sorted lists with floats rounded to 9 significant digits, so
    neither row order nor summation order counts as a difference."""
    names = list(engines)
    for query in queries[:sample]:
        reference = None
        for name in names:
            response = engines[name](query)
            rows = _canonical_rows(response.table.rows)
            if reference is None:
                reference = (names[0], rows)
            elif rows != reference[1]:
                raise AssertionError(
                    f"engine {name!r} disagrees with {reference[0]!r} on "
                    f"{query}: {rows[:3]} vs {reference[1][:3]}"
                )
