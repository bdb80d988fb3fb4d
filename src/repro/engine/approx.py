"""Mergeable quantile sketch backing the ``PERCENTILEEST*`` functions.

A deterministic KLL/MRL-style sketch: items live in levels where level
``h`` items each represent ``2**h`` original values. When a level fills
past ``k`` items it is *compacted* — sorted, and every other item
promoted to the next level at double weight. Survivor parity alternates
per level via a compaction counter instead of a coin flip, so the
sketch is fully deterministic: the simulation harness's byte-identical
replay digests depend on it, and the scalar and vectorized engines can
assert state equality rather than mere closeness.

Properties the engine relies on:

* **Bounded state** — ``O(k log(n/k))`` items regardless of input size,
  so partial states ship cheaply through the ``repro.net`` codec.
* **Mergeable** — ``merge`` concatenates levels and re-compacts;
  commutative to the byte (sorted unions + summed counters), so the
  order two partials arrive in cannot perturb results. It is *not*
  associative once a merge compacts: ``(a+b)+c`` and ``a+(b+c)`` may
  keep different items, so a different grouping of segments into
  servers (routing) can move an estimate, within
  :meth:`rank_error_bound`.
* **Exact when small** — below ``k`` values no compaction happens and
  ``quantile`` reproduces ``np.percentile``'s linear interpolation
  exactly.
* **Bounded error** — with ``H`` compacted levels the rank error is at
  most ``H/(2k)`` of ``n`` (each level-``h`` compaction displaces ranks
  by ≤ ``2**(h-1)`` and happens ≤ ``n/(k·2**h)`` times), surfaced as
  :meth:`rank_error_bound` for the oracle and the CI gate.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Default compactor capacity; ~0.25% rank error per compacted level.
DEFAULT_K = 200


class QuantileSketch:
    """Deterministic mergeable quantile sketch (KLL/MRL hybrid)."""

    __slots__ = ("k", "count", "levels", "offsets")

    def __init__(self, k: int = DEFAULT_K, count: int = 0,
                 levels: list[list[float]] | None = None,
                 offsets: list[int] | None = None):
        if k < 8:
            raise ValueError("k must be >= 8")
        self.k = k
        self.count = count
        #: ``levels[h]`` holds items of weight ``2**h``.
        self.levels: list[list[float]] = levels if levels is not None else [[]]
        #: Per-level compaction counters; parity picks survivor offset.
        self.offsets: list[int] = (offsets if offsets is not None
                                   else [0] * len(self.levels))

    # -- building -----------------------------------------------------------

    def add(self, value) -> None:
        self.levels[0].append(float(value))
        self.count += 1
        if len(self.levels[0]) >= self.k:
            self._compact(0)

    def add_many(self, values: Iterable) -> None:
        """Bulk add, state-identical to per-value :meth:`add` in the
        same order (fills level 0 in chunks between compactions)."""
        if isinstance(values, np.ndarray):
            vals = values.astype(np.float64).tolist()
        else:
            vals = [float(v) for v in values]
        level0 = self.levels[0]
        i, n = 0, len(vals)
        while i < n:
            take = min(self.k - len(level0), n - i)
            level0.extend(vals[i:i + take])
            self.count += take
            i += take
            if len(level0) >= self.k:
                self._compact(0)
                level0 = self.levels[0]

    def _compact(self, h: int) -> None:
        """Promote half of level ``h`` to ``h + 1`` deterministically."""
        items = sorted(self.levels[h])
        carry = items.pop() if len(items) % 2 else None
        offset = self.offsets[h] & 1
        self.offsets[h] += 1
        survivors = items[offset::2]
        self.levels[h] = [carry] if carry is not None else []
        if h + 1 == len(self.levels):
            self.levels.append([])
            self.offsets.append(0)
        self.levels[h + 1].extend(survivors)
        if len(self.levels[h + 1]) >= self.k:
            self._compact(h + 1)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combined sketch; commutative to the byte (sorted level unions
        plus summed compaction counters), but not associative once it
        compacts (see the module docstring)."""
        if other.k != self.k:
            raise ValueError("cannot merge sketches of different k")
        height = max(len(self.levels), len(other.levels))
        levels = []
        offsets = []
        for h in range(height):
            a = self.levels[h] if h < len(self.levels) else []
            b = other.levels[h] if h < len(other.levels) else []
            levels.append(sorted(a + b))
            oa = self.offsets[h] if h < len(self.offsets) else 0
            ob = other.offsets[h] if h < len(other.offsets) else 0
            offsets.append(oa + ob)
        merged = QuantileSketch(self.k, self.count + other.count,
                                levels, offsets)
        h = 0
        while h < len(merged.levels):
            if len(merged.levels[h]) >= merged.k:
                merged._compact(h)
            h += 1
        return merged

    def copy(self) -> "QuantileSketch":
        return QuantileSketch(self.k, self.count,
                              [list(level) for level in self.levels],
                              list(self.offsets))

    # -- estimation ----------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        values: list[float] = []
        weights: list[int] = []
        for h, level in enumerate(self.levels):
            weight = 1 << h
            for value in level:
                values.append(value)
                weights.append(weight)
        order = np.argsort(np.asarray(values, dtype=np.float64),
                           kind="stable")
        return (np.asarray(values, dtype=np.float64)[order],
                np.asarray(weights, dtype=np.int64)[order])

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-th percentile (``q`` in [0, 100]), with
        ``np.percentile``-style linear interpolation; ``None`` when the
        sketch is empty."""
        if self.count == 0:
            return None
        values, weights = self._weighted_items()
        # Each item of weight w occupies w consecutive unit positions in
        # [0, count); interpolate between the values at the positions
        # flanking the (possibly fractional) target rank — identical to
        # np.percentile's "linear" method when all weights are 1.
        ends = np.cumsum(weights)
        target = (q / 100.0) * (self.count - 1)
        lo = int(math.floor(target))
        hi = int(math.ceil(target))
        v_lo = float(values[np.searchsorted(ends, lo, side="right")])
        v_hi = float(values[np.searchsorted(ends, hi, side="right")])
        if hi == lo:
            return v_lo
        return v_lo + (v_hi - v_lo) * (target - lo)

    def rank_error_bound(self) -> float:
        """Worst-case rank error as a fraction of ``count``."""
        compacted = sum(1 for h in range(len(self.offsets))
                        if self.offsets[h] > 0)
        if compacted == 0:
            return 0.0
        return min(1.0, compacted / (2.0 * self.k))

    @property
    def num_retained(self) -> int:
        return sum(len(level) for level in self.levels)

    # -- equality / serialization support ------------------------------------

    def canonical_levels(self) -> list[list[float]]:
        return [sorted(level) for level in self.levels]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (self.k == other.k and self.count == other.count
                and self.offsets == other.offsets
                and self.canonical_levels() == other.canonical_levels())

    def __repr__(self) -> str:
        return (f"QuantileSketch(k={self.k}, n={self.count}, "
                f"retained={self.num_retained})")


def sketch_of(values: Sequence, k: int = DEFAULT_K) -> QuantileSketch:
    """Convenience constructor: a sketch over ``values`` in order."""
    sketch = QuantileSketch(k)
    sketch.add_many(values)
    return sketch
