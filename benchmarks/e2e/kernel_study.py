#!/usr/bin/env python3
"""The study that picked the reference kernel (README.md, "Choosing the
kernel"): which candidate slows down when, and as much as, the workloads?

    python3 benchmarks/e2e/kernel_study.py [--seconds 1800]

One process runs rounds of three workloads in turn for ``--seconds`` and
reads *every* candidate kernel at every block edge, so all candidates are
judged on the same minutes of the same machine. Per workload and round,
``r`` is the round's raw ``execute`` time over the time its slots take in
a quiet round (each slot's lower quartile over the study) and ``k`` a
candidate's mean reading over the round's block edges, over its median.
A kernel that follows the workload has slope 1 in ``log r ~ log k`` and a
small spread of ``log r - log k``; the table prints both per candidate
(and geometric means of candidates), for the rounds where the committed
kernel read below ``HEAVY`` times its median and for the rest. It takes a
long study to see both: the host's heavy minutes come when they come.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from statistics import median

import numpy as np

import calib
import run as runner

HEAVY = 1.25
_SMALL_TREE = calib._nested(4, 4)
_ARRAY = (np.arange(2000, dtype=np.int64) * 7919) % 2003
_SOURCE = "def f(a, b):\n" + "".join(
    f"    x{i} = a * {i} + b if a > {i} else [a, b, {i}]\n"
    for i in range(40)) + "    return x1\n"


def numpy_small() -> int:
    """Boolean mask + fancy index + sum on a 2 000-element array, 64
    times: the engine's idiom, inside the first-level cache."""
    total = 0
    for threshold in range(100, 1892, 28):
        mask = _ARRAY >= threshold
        total += int(_ARRAY[mask].sum()) + int(np.count_nonzero(mask))
    return total


CANDIDATES = {
    "walk_8k": calib.kernel,                            # the committed one
    "walk_2k": lambda: calib._walk(_SMALL_TREE),        # ~75 KB: fits L1
    "numpy_small": numpy_small,
    "alloc": lambda: len([{"a": i, "b": str(i), "c": (i, i + 1)}
                          for i in range(1500)]),
    "compile": lambda: compile(_SOURCE, "<kernel>", "exec"),
}
MIXES = [(name,) for name in CANDIDATES] + [
    ("numpy_small", "walk_2k"), ("numpy_small", "walk_8k"),
    ("walk_8k", "alloc"), ("walk_2k", "walk_8k", "alloc"),
    ("walk_8k", "alloc", "compile")]
WORKLOADS = ("point_lookup", "scan_groupby", "ingest_query_mix")


class StudyMeter(calib.Meter):
    """A meter that reads every candidate at every edge and remembers
    which two edges bracket each block."""

    def __init__(self) -> None:
        super().__init__(calib.NOMINAL_NS, self._read_all)
        self.edges: list[list[float]] = []
        self.blocks: list[tuple[int, int, list]] = []

    def _read_all(self) -> float:
        readings = []
        for candidate in CANDIDATES.values():
            three = []
            for _ in range(calib.KERNEL_REPEATS):
                started = time.perf_counter_ns()
                candidate()
                three.append(time.perf_counter_ns() - started)
            readings.append(median(three))
        self.edges.append(readings)
        return readings[0]

    def end(self, samples: calib.Samples) -> float:
        pending = list(self._pending)
        before = len(self.edges) - 1
        factor = super().end(samples)
        self.blocks.append((before, len(self.edges) - 1, pending))
        return factor


def measure_rounds(seconds: float):
    """``rounds[workload]`` = one (first block, last block) pair per round."""
    import measure
    from workloads import WORKLOADS as MAKE, Tally

    meter, tally = StudyMeter(), Tally()
    made = {name: MAKE[name](1) for name in WORKLOADS}
    clusters = {name: measure._prepare(workload, meter, tally)[0]
                for name, workload in made.items()}
    rounds: dict[str, list[tuple[int, int]]] = {name: [] for name in WORKLOADS}
    started, cycle = time.perf_counter(), 0
    while time.perf_counter() - started < seconds:
        for name, workload in made.items():
            index = cycle
            if workload.max_rounds != math.inf:  # start over, caches cleared
                index = cycle % int(workload.max_rounds)
                if cycle and not index:
                    for broker in clusters[name].brokers:
                        broker.result_cache.clear()
            first = len(meter.blocks)
            meter.reset_edge()
            workload.run_round(clusters[name], index + 1, meter,
                               calib.Samples(), tally)
            rounds[name].append((first, len(meter.blocks)))
        cycle += 1
    assert tally.failed == 0, tally.reasons
    return meter, rounds


def table(meter: StudyMeter, rounds: dict) -> list[str]:
    edges = np.array(meter.edges, dtype=float)
    edges /= np.median(edges, axis=0)
    names = list(CANDIDATES)
    logs = {}
    for workload, spans in rounds.items():
        by_slot: dict[int, list[float]] = {}
        for first, last in spans:
            for _, _, pending in meter.blocks[first:last]:
                for series, raw, slot in pending:
                    if series == "execute":
                        by_slot.setdefault(slot, []).append(raw)
        quiet = {slot: np.percentile(v, 25) for slot, v in by_slot.items()}
        rows = []
        for first, last in spans:
            took = expected = 0.0
            readings = []
            for before, after, pending in meter.blocks[first:last]:
                timed = [(raw, slot) for series, raw, slot in pending
                         if series == "execute"]
                if timed:
                    took += sum(raw for raw, _ in timed)
                    expected += sum(quiet[slot] for _, slot in timed)
                    readings.append((edges[before] + edges[after]) / 2)
            rows.append([took / expected, *np.mean(readings, axis=0)])
        logs[workload] = np.log(np.array(rows))
    lines = []
    for label, keep in (("kernel below %.2fx its median" % HEAVY, True),
                        ("kernel at or above %.2fx" % HEAVY, False)):
        lines.append(f"rounds with the committed {label}: slope / sd of "
                     "log(r/k)")
        lines.append(f"{'kernel':<30}" + "".join(
            f"{w + ' n=' + str(int(((v[:, 1] < math.log(HEAVY)) == keep).sum())):>24}"
            for w, v in logs.items()))
        for mix in MIXES:
            cells = []
            for values in logs.values():
                part = values[(values[:, 1] < math.log(HEAVY)) == keep]
                if len(part) < 3:
                    cells.append(f"{'-':>24}")
                    continue
                k = part[:, [1 + names.index(n) for n in mix]].mean(axis=1)
                slope = np.polyfit(k, part[:, 0], 1)[0]
                cells.append(f"{slope:>14.2f} / {np.std(part[:, 0] - k):6.1%}")
            lines.append(f"{'+'.join(mix):<30}" + "".join(cells))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1800.0)
    args = parser.parse_args()
    sys.path.insert(0, str(runner.ROOT / "src"))
    meter, rounds = measure_rounds(args.seconds)
    print("\n".join(table(meter, rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
