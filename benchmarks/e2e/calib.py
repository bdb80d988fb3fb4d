"""The reference kernel and the block meter that calibrates every timing.

On a shared 2-vCPU host the *machine's speed* drifts by tens of percent
for tens of seconds at a time (CPU/wall stays ~0.98: it is not lost
time, it is slower time). No statistic taken inside one run removes
that. What does: issue the work in short *blocks*, run a fixed
reference kernel before and after each block, and scale every duration
measured inside the block by ``nominal / mean(kernel before, after)``.
A block that ran on a 1.3x slower machine sees a 1.3x slower kernel and
comes out unchanged; a program that got 1.3x slower on the same machine
comes out 1.3x slower.

This module never imports ``repro``: the kernel must not change when
the program does.
"""

from __future__ import annotations

import math
import time
from statistics import median
from typing import Callable, Sequence

Clock = Callable[[], int]

# -- the reference kernel ----------------------------------------------------
#
# A fixed amount of interpreter work over a structure that does not fit
# the first-level cache. README.md ("Choosing the kernel") holds the
# study that picked it: kernels that stay inside the first-level cache
# follow a drifting clock as well, but when the host's memory system is
# busy the workloads slow 1.5-2x as far as those do.


def _nested(depth: int, width: int) -> object:
    if depth == 0:
        return [1, 2.5, "x", None, True, (3, 4)]
    return {f"k{i}": _nested(depth - 1, width) if i % 2 else
            [_nested(depth - 1, width)] for i in range(width)}


#: ~8 000 nodes, ~300 KB of dicts, lists, tuples and scalars.
_TREE = _nested(5, 4)


def _walk(node: object) -> int:
    # The same isinstance ladder a tagged codec climbs per node.
    if node is None or isinstance(node, (bool, int, str)):
        return 1
    if isinstance(node, float):
        return 1
    if isinstance(node, (list, tuple)):
        return 1 + sum([_walk(item) for item in node])
    if isinstance(node, dict):
        return 1 + sum([_walk(value) for value in node.values()])
    return 0


def kernel() -> int:
    """Recursive isinstance-ladder walk over a nested dict/list — the
    codec's and the planner's idiom (interpreter dispatch, pointer
    chasing, small allocations)."""
    return _walk(_TREE)


#: What a reading is on this repo's reference host on a quiet minute, in
#: nanoseconds (the issue's ``calib_nominal_ns``). Only ratios of
#: calibrated values between two commits matter, so it need not be
#: re-measured when the host changes; it keeps calibrated values close
#: to raw ones (``bench.speed_factor`` near 1).
NOMINAL_NS = 2_189_000.0
#: Each reading is the median of this many back-to-back executions: one
#: timer interrupt inside the kernel must not misprice a whole block,
#: but the reading must not dodge interference either (the *smallest*
#: of three reads a quieter machine than the block ran on; across runs
#: the workload then moved 1.9x as far as the kernel).
KERNEL_REPEATS = 3


def read_kernel(clock: Clock = time.perf_counter_ns) -> float:
    """Execute the kernel; its reading in nanoseconds."""
    readings = []
    for _ in range(KERNEL_REPEATS):
        started = clock()
        kernel()
        readings.append(clock() - started)
    return float(median(readings))


class Samples:
    """Calibrated (and, beside them, raw) durations by series name.
    Each carries the *slot* it was measured for — the operation's
    position in the round's fixed plan — so that the same slot can be
    lined up across rounds."""

    def __init__(self) -> None:
        self.cal: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.slots: dict[str, list[int]] = {}

    def add(self, series: str, calibrated_ns: float, raw_ns: float,
            slot: int) -> None:
        self.cal.setdefault(series, []).append(calibrated_ns)
        self.raw.setdefault(series, []).append(raw_ns)
        self.slots.setdefault(series, []).append(slot)

    def total(self, series: str, raw: bool = False) -> float:
        return sum((self.raw if raw else self.cal).get(series, ()))


class Meter:
    """Times blocks of work and calibrates them against the kernel.

    Usage::

        meter.begin()                 # kernel "before" (shared with the
        started = meter.clock()       #  previous block's "after")
        ...one call into the program...
        meter.record("execute", meter.clock() - started, slot)
        meter.end(samples)            # kernel "after"; flushes

    ``record`` only buffers; ``end`` multiplies the buffered raw
    durations by the block's speed factor before they reach ``samples``
    — so no statistic is ever taken over an uncalibrated duration.
    """

    def __init__(self, nominal_ns: float,
                 read_kernel: Callable[[], float],
                 clock: Clock = time.perf_counter_ns):
        self.nominal_ns = nominal_ns
        self.clock = clock
        self._read_kernel = read_kernel
        self._edge: float | None = None
        self._pending: list[tuple[str, float, int]] = []
        #: Every block's speed factor, for ``bench.speed_factor``.
        self.factors: list[float] = []

    def begin(self) -> None:
        if self._edge is None:
            self._edge = self._read_kernel()

    def record(self, series: str, raw_ns: float, slot: int = 0) -> None:
        self._pending.append((series, raw_ns, slot))

    def end(self, samples: Samples) -> float:
        assert self._edge is not None, "end() without begin()"
        after = self._read_kernel()
        factor = self.nominal_ns / ((self._edge + after) / 2.0)
        self._edge = after
        for series, raw_ns, slot in self._pending:
            samples.add(series, raw_ns * factor, raw_ns, slot)
        self._pending.clear()
        self.factors.append(factor)
        return factor

    def reset_edge(self) -> None:
        """Forget the last kernel reading: after an untimed gap the
        next block takes a fresh "before"."""
        self._edge = None


def make_meter() -> Meter:
    return Meter(NOMINAL_NS, read_kernel)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The value at quantile ``q`` with ``n - ceil(q n)`` samples beyond
    it (nearest-rank, no interpolation)."""
    n = len(sorted_values)
    if n == 0:
        return math.nan
    return sorted_values[min(n - 1, max(0, math.ceil(q * n) - 1))]
