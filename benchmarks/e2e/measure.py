"""One run of one workload: set-ups, rounds, statistics, oracle check.

Rules (README.md, "Measurement rules", says why):

* every duration is calibrated per block before any statistic is taken
  (``calib.Meter``);
* slot ``j`` of every round is the same shape and cost class, so the
  run reports the latency statistics of the *typical round* — each
  slot's median over the rounds; throughputs are computed per round over
  every completed operation, then the median over the rounds; a run
  ends on a round boundary;
* set-up is done ``workload.setups`` times on fresh clusters — once
  before the timed rounds, the rest after them and after the memory
  reading — and the run reports the median;
* an untraced run reports the end-to-end metrics, a traced run the
  per-layer ones (``tracing.py``) from a fixed number of rounds, so its
  counts repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import resource
import time

import calib
from calib import Samples, median, percentile
from workloads import NO_PROBE, IngestQueryMix, Probe, Tally, Workload

#: A run reports at least this many timed rounds, whatever ``seconds``.
MIN_ROUNDS = 8
#: A traced run times this many untraced and this many traced rounds,
#: alternating, whatever ``seconds``.
TRACE_ROUNDS = 3


def settle_heap() -> None:
    """Collect what set-up left behind and move the survivors out of
    the collector's reach, so collections during the timed rounds only
    walk what the queries allocate. The collector stays on."""
    gc.collect()
    gc.freeze()


def _series(samples: Samples, series: str, raw: bool) -> list[float]:
    return (samples.raw if raw else samples.cal).get(series, [])


def typical_round(rounds: list[Samples], series: str,
                  raw: bool = False) -> list[float]:
    """One value per slot: the median over the rounds of the durations
    measured for that slot. Slot ``j`` is the same shape and cost class
    in every round, so this is the round a quiet machine would have
    produced: a burst that hits one operation of one round moves
    nothing, whichever slot it hits. Neither does a cost of the
    program's own that lands on a different slot every round — that is
    what ``throughput`` is for."""
    by_slot: dict[int, list[float]] = {}
    for samples in rounds:
        for slot, value in zip(samples.slots.get(series, ()),
                               _series(samples, series, raw)):
            by_slot.setdefault(slot, []).append(value)
    return [median(values) for values in by_slot.values()]


def throughput(rounds: list[Samples], series: str, per_sample: int = 1,
               raw: bool = False) -> float | None:
    """Completed operations (times ``per_sample``) per second spent
    inside them: computed per round over *every* completed operation of
    the round, then the median over the rounds. Whatever the program
    does in most rounds is in it — a collection pause, an eviction
    sweep, a stall every N queries — wherever in the round it lands.
    None when nothing completed."""
    rates = []
    for samples in rounds:
        values = _series(samples, series, raw)
        if values:
            rates.append(len(values) * per_sample / (sum(values) / 1e9))
    return median(rates) if rates else None


def query_values(workload: Workload, rounds: list[Samples],
                 raw: bool = False) -> dict:
    """Median and tail percentile of the typical round's ``execute``
    durations, and the rounds' throughput."""
    slots = sorted(typical_round(rounds, "execute", raw))
    if not slots:
        return {}
    return {
        "latency_p50_ms": median(slots) / 1e6,
        "latency_tail_ms": percentile(slots, workload.tail_q) / 1e6,
        "queries_per_s": throughput(rounds, "execute", raw=raw),
    }


def _setup_values(rows: int, samples: Samples, raw: bool) -> dict:
    """One set-up's values; ``rows`` went through ``upload_records``."""
    return {"setup_s": samples.total("setup", raw) / 1e9,
            "ingest_rows_per_s": rows / (samples.total("upload", raw) / 1e9)}


def end_to_end(workload: Workload, setups: list[Samples],
               rounds: list[Samples], raw: bool = False) -> dict[str, float]:
    """The run's end-to-end values: latencies from the typical round,
    throughputs as the median over rounds, set-up metrics as the median
    over the set-ups. ``ingest_query_mix`` sets up and ingests inside
    every round, so there both come from the rounds."""
    values = query_values(workload, rounds, raw)
    if isinstance(workload, IngestQueryMix):
        rate = throughput(rounds, "ingest", workload.STEP_ROWS, raw)
        if rate is not None:
            values["ingest_rows_per_s"] = rate
        values["setup_s"] = median(
            [s.total("setup", raw) for s in rounds]) / 1e9
    else:
        per_setup = [_setup_values(workload.rows, s, raw) for s in setups]
        for name in per_setup[0]:
            values[name] = median([v[name] for v in per_setup])
    return values


def _timed_rounds(workload: Workload, cluster, meter: calib.Meter,
                  tally: Tally, seconds: float,
                  kept: list) -> list[Samples]:
    """Timed rounds 1, 2, ... until the next one would not fit in
    ``seconds`` (but at least ``MIN_ROUNDS``) or the workload has no
    unused texts left for another."""
    rounds: list[Samples] = []
    started = time.perf_counter()
    min_rounds = MIN_ROUNDS if workload.scale >= 1.0 else 2
    while len(rounds) < workload.max_rounds:
        samples = Samples()
        workload.run_round(cluster, len(rounds) + 1, meter, samples, tally,
                           keep=kept if not rounds else None)
        rounds.append(samples)
        elapsed = time.perf_counter() - started
        if (len(rounds) >= min_rounds
                and elapsed + elapsed / len(rounds) > seconds):
            break
    return rounds


def _set_ups(workload: Workload, meter: calib.Meter, tally: Tally,
             times: int,
             probe: Probe = NO_PROBE) -> tuple[object, list[Samples]]:
    """``times`` full set-ups, each on a fresh cluster built after the
    one before it is gone. Returns the last cluster and each set-up's
    durations."""
    cluster = None
    per_setup: list[Samples] = []
    for _ in range(times):
        cluster = None
        gc.collect()
        samples = Samples()
        cluster = workload.setup(meter, samples, tally, probe)
        per_setup.append(samples)
    return cluster, per_setup


def _prepare(workload: Workload, meter: calib.Meter, tally: Tally,
             probe: Probe = NO_PROBE) -> tuple[object, list[Samples]]:
    """The cluster that serves the queries: one set-up (none for a
    workload that builds a cluster every round), the heap settled, the
    warm-up round run."""
    cluster, per_setup = _set_ups(workload, meter, tally,
                                  min(1, workload.setups), probe)
    settle_heap()
    if per_setup:
        workload.warmup_round(cluster, meter, tally)
    return cluster, per_setup


def _verdict(tally: Tally, metrics: dict, units: dict) -> dict:
    return {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_untraced(workload: Workload, seconds: float,
                 units: dict[str, str]) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, and a detail record (raw
    values, counts, the instrument's own readings) for ``noise.py``."""
    wall_started = time.perf_counter()
    meter = calib.make_meter()
    tally = Tally()
    cluster, setups = _prepare(workload, meter, tally)
    kept: list = []
    rounds = _timed_rounds(workload, cluster, meter, tally, seconds, kept)
    # Before the repeated set-ups and the oracle run: rebuilding clusters
    # fragments the heap by a few MB in one process of three, and the
    # oracle's parse trees and row lists are the benchmark's, not the
    # program's. The benchmark's copy of the input records is included
    # (README.md says so).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cluster = None
    gc.unfreeze()
    setups += _set_ups(workload, meter, tally,
                       workload.setups - len(setups))[1]
    checked = workload.verify(kept, tally)
    tally.attempted += checked

    metrics = end_to_end(workload, setups, rounds)
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = end_to_end(workload, setups, rounds, raw=True)
    raw["peak_rss_mb"] = peak_rss_mb
    detail = {
        "raw": raw,
        "rounds": len(rounds),
        "per_round": [query_values(workload, [s]) for s in rounds],
        "queries_timed": sum(len(s.cal.get("execute", ())) for s in rounds),
        "answers_checked": checked,
        "speed_factor": median(meter.factors),
        "wall_s": time.perf_counter() - wall_started,
        "failures": tally.reasons,
    }
    return _verdict(tally, metrics, units), detail


def run_traced(workload: Workload, units: dict[str, str],
               spans_path: str | None = None) -> tuple[dict, dict]:
    """The per-layer metrics: one traced set-up, then ``TRACE_ROUNDS``
    untraced and ``TRACE_ROUNDS`` traced rounds, alternating."""
    from tracing import Recorder, layer_metrics

    wall_started = time.perf_counter()
    meter = calib.make_meter()
    tally = Tally()
    recorder = Recorder(meter)
    recorder.install()
    try:
        cluster, _ = _prepare(workload, meter, tally, probe=recorder)
        recorder.uninstall()
        plain: list[Samples] = []
        traced: list[Samples] = []
        kept: list = []
        for index in range(TRACE_ROUNDS if workload.scale >= 1.0 else 1):
            samples = Samples()
            workload.run_round(cluster, 2 * index + 1, meter, samples,
                               tally, keep=kept if index == 0 else None)
            plain.append(samples)
            recorder.install()
            samples = Samples()
            workload.run_round(cluster, 2 * index + 2, meter, samples,
                               tally, probe=recorder)
            recorder.uninstall()
            traced.append(samples)
    finally:
        recorder.uninstall()
    checked = workload.verify(kept, tally)
    tally.attempted += checked

    def total(rounds: list[Samples]) -> float:
        return sum(s.total("execute") for s in rounds)

    def count(rounds: list[Samples]) -> int:
        return sum(len(s.cal.get("execute", ())) for s in rounds)

    metrics = layer_metrics(recorder, total(traced))
    metrics["trace.overhead_ratio"] = (
        (total(traced) / max(1, count(traced)))
        / (total(plain) / max(1, count(plain))))
    metrics["bench.speed_factor"] = median(meter.factors)
    metrics["bench.raw_latency_p50_ms"] = median(
        [v for s in plain for v in s.raw.get("execute", ())]) / 1e6
    if spans_path:
        recorder.write_spans(spans_path)
    detail = {
        "rounds": len(plain) + len(traced),
        "spans": recorder.span_count,
        "answers_checked": checked,
        "wall_s": time.perf_counter() - wall_started,
        "failures": tally.reasons,
    }
    return _verdict(tally, metrics, units), detail
