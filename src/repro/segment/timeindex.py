"""Per-segment timestamp index: pre-aggregated time rollups.

Production Pinot's TIMESTAMP index materializes rollups of configured
granularities so ``GROUP BY <time bucket>`` queries read a handful of
pre-aggregated buckets instead of scanning raw rows. This module builds
that structure at segment seal time: for every configured granularity it
stores the sorted bucket starts plus per-bucket COUNT and per-metric
SUM/MIN/MAX — enough to serve COUNT/SUM/MIN/MAX/AVG/MINMAXRANGE with
partial states byte-identical to the scan path's.

A rollup at granularity ``d`` also serves queries bucketed at any
multiple ``g`` of ``d`` (the planner re-buckets coarser), and time-range
predicates whose bounds align to ``d`` — see
:meth:`TimeIndex.rollup_for`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.common.schema import Schema
from repro.common.types import DataType


@dataclass
class TimeRollup:
    """Pre-aggregated buckets at one granularity."""

    granularity: int
    #: Sorted bucket start values (time floored to the granularity).
    buckets: np.ndarray
    counts: np.ndarray
    sums: dict[str, np.ndarray]
    mins: dict[str, np.ndarray]
    maxs: dict[str, np.ndarray]

    @property
    def nbytes(self) -> int:
        total = self.buckets.nbytes + self.counts.nbytes
        for arrays in (self.sums, self.mins, self.maxs):
            total += sum(a.nbytes for a in arrays.values())
        return total

    def slice_range(self, low: int | None, high: int | None) -> slice:
        """Bucket slice whose rows fall in the inclusive time range
        [low, high]; bounds must be bucket-aligned (caller checks)."""
        start = 0 if low is None else int(
            np.searchsorted(self.buckets, low, side="left")
        )
        stop = len(self.buckets) if high is None else int(
            np.searchsorted(self.buckets, high, side="right")
        )
        return slice(start, stop)


class TimeIndex:
    """All configured rollups for one segment."""

    def __init__(self, time_column: str, metric_columns: tuple[str, ...],
                 rollups: dict[int, TimeRollup]):
        self.time_column = time_column
        self.metric_columns = metric_columns
        self.rollups = rollups

    @property
    def granularities(self) -> tuple[int, ...]:
        return tuple(sorted(self.rollups))

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.rollups.values())

    def rollup_for(self, bucket_size: int | None, low: int | None,
                   high: int | None) -> TimeRollup | None:
        """The coarsest rollup that can serve a query bucketing time at
        ``bucket_size`` over the inclusive range [low, high], or None.

        A rollup at granularity ``d`` qualifies when ``d`` divides the
        query's bucket size (coarser buckets re-aggregate exactly from
        finer ones; ``bucket_size=None`` — no grouping — waives this)
        and both range bounds sit on bucket edges — an unaligned bound
        would need a partial bucket, which only the raw rows can
        produce.
        """
        best: TimeRollup | None = None
        for granularity in sorted(self.rollups, reverse=True):
            if bucket_size is not None and bucket_size % granularity:
                continue
            if low is not None and low % granularity:
                continue
            if high is not None and (high + 1) % granularity:
                continue
            best = self.rollups[granularity]
            break
        return best

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        rollups = {}
        for granularity, rollup in self.rollups.items():
            rollups[str(granularity)] = {
                "buckets": rollup.buckets.tolist(),
                "counts": rollup.counts.tolist(),
                "sums": {k: v.tolist() for k, v in rollup.sums.items()},
                "mins": {k: v.tolist() for k, v in rollup.mins.items()},
                "maxs": {k: v.tolist() for k, v in rollup.maxs.items()},
            }
        return {
            "time_column": self.time_column,
            "metric_columns": list(self.metric_columns),
            "rollups": rollups,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TimeIndex":
        rollups = {}
        for key, data in payload["rollups"].items():
            granularity = int(key)
            rollups[granularity] = TimeRollup(
                granularity=granularity,
                buckets=np.asarray(data["buckets"], dtype=np.int64),
                counts=np.asarray(data["counts"], dtype=np.int64),
                sums={k: np.asarray(v, dtype=np.float64)
                      for k, v in data["sums"].items()},
                mins={k: np.asarray(v, dtype=np.float64)
                      for k, v in data["mins"].items()},
                maxs={k: np.asarray(v, dtype=np.float64)
                      for k, v in data["maxs"].items()},
            )
        return cls(payload["time_column"],
                   tuple(payload["metric_columns"]), rollups)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeIndex):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def __repr__(self) -> str:
        return (f"TimeIndex({self.time_column!r}, "
                f"granularities={self.granularities})")


def build_time_index(schema: Schema,
                     records: Sequence[Mapping[str, Any]],
                     granularities: Sequence[int]) -> TimeIndex | None:
    """Build rollups over ``records`` at each granularity.

    Returns None when the schema has no integer time column — rollup
    bucket arithmetic is defined on integral time units.
    """
    time_column = schema.time_column
    if time_column is None or not granularities:
        return None
    time_spec = schema.field(time_column)
    if time_spec.dtype not in (DataType.INT, DataType.LONG):
        return None

    metric_columns = tuple(
        spec.name for spec in schema
        if spec.dtype is not DataType.STRING and not spec.multi_value
    )
    times = np.asarray([r[time_column] for r in records], dtype=np.int64)
    values = {
        name: np.asarray([r[name] for r in records], dtype=np.float64)
        for name in metric_columns
    }

    rollups: dict[int, TimeRollup] = {}
    for granularity in sorted(set(int(g) for g in granularities)):
        if granularity < 1:
            continue
        floored = (times // granularity) * granularity
        buckets, inverse = np.unique(floored, return_inverse=True)
        counts = np.bincount(inverse, minlength=len(buckets))
        sums: dict[str, np.ndarray] = {}
        mins: dict[str, np.ndarray] = {}
        maxs: dict[str, np.ndarray] = {}
        for name, vals in values.items():
            sums[name] = np.bincount(inverse, weights=vals,
                                     minlength=len(buckets))
            low = np.full(len(buckets), np.inf)
            high = np.full(len(buckets), -np.inf)
            np.minimum.at(low, inverse, vals)
            np.maximum.at(high, inverse, vals)
            mins[name] = low
            maxs[name] = high
        rollups[granularity] = TimeRollup(
            granularity=granularity,
            buckets=buckets.astype(np.int64),
            counts=counts.astype(np.int64),
            sums=sums, mins=mins, maxs=maxs,
        )
    if not rollups:
        return None
    return TimeIndex(time_column, metric_columns, rollups)


def time_index_to_bytes(index: TimeIndex) -> bytes:
    return json.dumps(index.to_payload(),
                      separators=(",", ":")).encode("utf-8")


def time_index_from_bytes(payload: bytes) -> TimeIndex:
    return TimeIndex.from_payload(json.loads(payload.decode("utf-8")))
