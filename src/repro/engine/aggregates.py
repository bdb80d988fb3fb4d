"""Aggregation functions with mergeable partial states.

Query execution in Pinot is distributed: every segment produces a
partial aggregation state, servers combine their segments' states, and
the broker merges the per-server states into the final value (§3.3.3
steps 6-7). Each function here therefore defines:

* ``init_empty`` — identity state,
* ``aggregate(values)`` — state from a numpy array of column values,
* ``aggregate_rollup(rollup, rows)`` — the same state from rows that a
  segment structure pre-aggregated (:class:`Rollup`),
* ``merge(a, b)`` — combine two states, and ``merge_many(states)``
  any number at once (one merge level's inputs),
* ``finalize(state)`` — final result value.

A group-by keeps the states of one aggregation for all its groups as a
*state column* (``aggregate_grouped``, ``merge_grouped``,
``finalize_grouped``): a function whose state is made of
:class:`Rollup` arrays keeps those arrays — COUNT one int64 array,
SUM / MIN / MAX one float64 array, AVG ``(sums, counts)``, MINMAXRANGE
``(mins, maxs)`` — and any other state (distinct value arrays,
samples, sketches) is an object, its column a plain list of them. Only
this module knows which is which.

``DISTINCTCOUNT`` and the percentiles keep exact intermediate values —
a sorted array of the distinct values, a sample tuple; production
Pinot uses sketches (HLL, quantile digests) for these, which trade
accuracy for bounded size — exactness is the better default for a
reproduction because the tests can assert equality.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Any, Iterable, NamedTuple

import numpy as np

from repro.errors import ExecutionError
from repro.pql.ast_nodes import AggFunc, Aggregation
from repro.segment.bitmap import run_starts, sorted_unique


def _group_slices(values: np.ndarray, codes: np.ndarray,
                  num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` by group code (stably, preserving document order
    within each group) and return ``(sorted_values, bounds)`` where
    group ``g`` occupies ``sorted_values[bounds[g]:bounds[g + 1]]``.

    One argsort replaces a per-row Python dispatch loop for every
    sample- or sketch-state aggregation (HLL, percentiles).
    """
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(num_groups + 1))
    return values[order], bounds


def _as_float64(values: np.ndarray) -> np.ndarray:
    """``values`` as the float64 a state column holds — itself when it
    already is (the kernels only read it)."""
    return values.astype(np.float64, copy=False)


class Rollup(NamedTuple):
    """One aggregated column as a pre-aggregated source keeps it.

    Segment metadata (a single row), a timestamp-index rollup (one row
    per bucket) and a star-tree (one row per record) all reduce to
    this: how many raw docs each row stands for, and the sum / min /
    max of the column over them. ``None`` marks an array the source
    does not keep for the column; which arrays a function reads is its
    ``rollup_inputs``.
    """

    counts: np.ndarray
    sums: np.ndarray | None = None
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None


class AggregateFunction:
    """Interface for one aggregation function."""

    #: Whether the function needs the raw column values (False for COUNT).
    needs_values = True
    #: Whether the function computes on numbers, so that a STRING column
    #: is a planning error rather than an input.
    numeric_only = True
    #: The :class:`Rollup` arrays this function's state is made of, in
    #: state order; empty when only the raw rows can produce it.
    rollup_inputs: tuple[str, ...] = ()

    def init_empty(self) -> Any:
        raise NotImplementedError

    def aggregate(self, values: np.ndarray) -> Any:
        raise NotImplementedError

    def aggregate_grouped(self, values: np.ndarray, codes: np.ndarray,
                          num_groups: int) -> Any:
        """Vectorized per-group aggregation, as a state column;
        ``codes`` maps each value to its group index in
        ``[0, num_groups)``."""
        raise NotImplementedError

    def aggregate_rollup(self, rollup: Rollup, rows: Any,
                         codes: np.ndarray | None = None,
                         num_groups: int = 0) -> Any:
        """The state ``aggregate`` (``codes`` None) or the per-group
        states ``aggregate_grouped`` would produce from the raw docs
        behind ``rollup``'s rows ``rows`` (a slice or an index array).

        Each input array re-aggregates under the function whose state
        it already holds — sums under SUM, mins under MIN, maxs under
        MAX, counts by integer addition — so every plan kind emits the
        states of the scan path, identities for no rows included.
        """
        parts = []
        for name in self.rollup_inputs:
            values = getattr(rollup, name)[rows]
            func = _REAGGREGATE[name]
            parts.append(func.aggregate(values) if codes is None else
                         func.aggregate_grouped(values, codes, num_groups))
        return parts[0] if len(parts) == 1 else tuple(parts)

    def merge(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def merge_many(self, states: list[Any]) -> Any:
        """Merge any number of states at once — one merge level's
        inputs. By default the left fold ``merge(...merge(init_empty(),
        s1)..., sn)``, whose bits the incremental merge had."""
        merged = self.init_empty()
        for state in states:
            merged = self.merge(merged, state)
        return merged

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError

    # -- state columns -----------------------------------------------------

    def _arrays(self, column: Any) -> tuple[np.ndarray, ...]:
        return (column,) if len(self.rollup_inputs) == 1 else column

    def state_column(self, states: list[Any]) -> Any:
        """The state column holding ``states`` (one ``aggregate``-shaped
        state per group) — the row-wise way in, for the scalar oracle."""
        names = self.rollup_inputs
        if not names:
            return list(states)
        arrays = tuple(
            np.asarray(part, dtype=_STATE_DTYPES[name]) for name, part
            in zip(names, [states] if len(names) == 1 else zip(*states)))
        return arrays[0] if len(names) == 1 else arrays

    def state_rows(self, column: Any) -> list[Any]:
        """Inverse of :meth:`state_column`: one state per group."""
        if not self.rollup_inputs:
            return list(column)
        arrays = self._arrays(column)
        if len(arrays) == 1:
            return arrays[0].tolist()
        return list(zip(*(array.tolist() for array in arrays)))

    def merge_grouped(self, columns: list[Any], codes: np.ndarray,
                      num_groups: int) -> Any:
        """Merge state columns laid end to end into one of ``num_groups``
        groups; ``codes[i]`` is the group of entry ``i``.

        Entries of a group fold in input order — ``0.0 + s1 + s2 + ...``
        for sums, exactly the association of merging the columns one
        after another — so the merged bits do not depend on how many
        columns arrive at once. Array states re-aggregate like the
        pre-aggregated rows they are (see :meth:`aggregate_rollup`).
        """
        names = self.rollup_inputs
        if not names:
            merged: list[Any] = [None] * num_groups
            for code, state in zip(codes.tolist(),
                                   chain.from_iterable(columns)):
                mine = merged[code]
                merged[code] = (state if mine is None
                                else self.merge(mine, state))
            return merged
        arrays = tuple(
            _REAGGREGATE[name].aggregate_grouped(np.concatenate(parts),
                                                 codes, num_groups)
            for name, parts in zip(names, zip(*map(self._arrays, columns)))
        )
        return arrays[0] if len(names) == 1 else arrays

    def finalize_grouped(self, column: Any) -> np.ndarray:
        """``finalize`` of every state of the column, as one array
        (dtype object when some value is ``None``)."""
        if len(self.rollup_inputs) == 1:
            return column  # COUNT / SUM / MIN / MAX: the state is the value
        return np.asarray([self.finalize(state)
                           for state in self.state_rows(column)])


class CountFunction(AggregateFunction):
    needs_values = False
    numeric_only = False
    rollup_inputs = ("counts",)

    def init_empty(self) -> int:
        return 0

    def aggregate(self, values: np.ndarray) -> int:
        return int(len(values))

    def aggregate_grouped(self, values, codes, num_groups):
        return np.bincount(codes, minlength=num_groups)

    def merge(self, a: int, b: int) -> int:
        return a + b

    def finalize(self, state: int) -> int:
        return state


class SumFunction(AggregateFunction):
    rollup_inputs = ("sums",)

    def init_empty(self) -> float:
        return 0.0

    def aggregate(self, values: np.ndarray) -> float:
        return float(values.sum()) if len(values) else 0.0

    def aggregate_grouped(self, values, codes, num_groups):
        return np.bincount(codes, weights=_as_float64(values),
                           minlength=num_groups)

    def merge(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, state: float) -> float:
        return state


class MinFunction(AggregateFunction):
    rollup_inputs = ("mins",)

    def init_empty(self) -> float:
        return math.inf

    def aggregate(self, values: np.ndarray) -> float:
        return float(values.min()) if len(values) else math.inf

    def aggregate_grouped(self, values, codes, num_groups):
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, codes, _as_float64(values))
        return out

    def merge(self, a: float, b: float) -> float:
        return min(a, b)

    def finalize(self, state: float) -> float:
        return state


class MaxFunction(AggregateFunction):
    rollup_inputs = ("maxs",)

    def init_empty(self) -> float:
        return -math.inf

    def aggregate(self, values: np.ndarray) -> float:
        return float(values.max()) if len(values) else -math.inf

    def aggregate_grouped(self, values, codes, num_groups):
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, codes, _as_float64(values))
        return out

    def merge(self, a: float, b: float) -> float:
        return max(a, b)

    def finalize(self, state: float) -> float:
        return state


class AvgFunction(AggregateFunction):
    """State is (sum, count); merged exactly, finalized to sum/count."""

    rollup_inputs = ("sums", "counts")

    def init_empty(self) -> tuple[float, int]:
        return (0.0, 0)

    def aggregate(self, values: np.ndarray) -> tuple[float, int]:
        if not len(values):
            return (0.0, 0)
        return (float(values.sum()), int(len(values)))

    def aggregate_grouped(self, values, codes, num_groups):
        sums = np.bincount(codes, weights=_as_float64(values),
                           minlength=num_groups)
        counts = np.bincount(codes, minlength=num_groups)
        return sums, counts

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, state) -> float:
        total, count = state
        return total / count if count else 0.0

    def finalize_grouped(self, column):
        sums, counts = column
        return np.divide(sums, counts, out=np.zeros(len(sums)),
                         where=counts != 0)


class MinMaxRangeFunction(AggregateFunction):
    rollup_inputs = ("mins", "maxs")

    def init_empty(self):
        return (math.inf, -math.inf)

    def aggregate(self, values: np.ndarray):
        if not len(values):
            return (math.inf, -math.inf)
        return (float(values.min()), float(values.max()))

    def aggregate_grouped(self, values, codes, num_groups):
        lows = np.full(num_groups, np.inf)
        highs = np.full(num_groups, -np.inf)
        v = _as_float64(values)
        np.minimum.at(lows, codes, v)
        np.maximum.at(highs, codes, v)
        return lows, highs

    def merge(self, a, b):
        return (min(a[0], b[0]), max(a[1], b[1]))

    def finalize(self, state) -> float:
        low, high = state
        if math.isinf(low):
            return 0.0
        return high - low

    def finalize_grouped(self, column):
        lows, highs = column
        return np.where(np.isinf(lows), 0.0, highs - lows)


#: A DISTINCTCOUNT state's dtype for each kind of column values, and
#: for any other kind: a column's dtype fixes it, so every state of one
#: column shares it.
_DISTINCT_DTYPES = {"i": np.dtype(np.int64), "u": np.dtype(np.int64),
                    "f": np.dtype(np.float64), "b": np.dtype(np.bool_)}
_OBJECT = np.dtype(object)
_INT64 = np.dtype(np.int64)

#: Up to this many values, a DISTINCTCOUNT state is built or merged
#: through a Python set, beyond it by one numpy sort: on a few values
#: numpy's per-call cost is most of the work. Measured on int64s (one
#: core of a shared 2-core box), building from 5 values costs 2.5 us
#: through the set and 5.4 us sorted, from 24 values 5.4 / 5.5 us, from
#: 64 values 9.7 / 5.7 us; a 3-way merge of 24 values in all 7.1 / 6.8
#: us, of 63 values 12.0 / 7.3 us.
DISTINCT_SET_MAX = 24


def distinct_dtype(dtype: np.dtype) -> np.dtype:
    """The dtype of the DISTINCTCOUNT states of values of ``dtype``:
    int64 for integers, float64 for floats, bool, else object."""
    return _DISTINCT_DTYPES.get(dtype.kind, _OBJECT)


def distinct_state(values: Iterable[Any], dtype: np.dtype) -> np.ndarray:
    """The DISTINCTCOUNT state of the Python ``values`` (repeats
    allowed): their distinct values, ascending, as a ``dtype`` array —
    or the empty state when there are none."""
    distinct = set(values)
    if not distinct:
        return np.empty(0, _INT64)
    return np.array(sorted(distinct), dtype)  # dtype positional: cheaper


class DistinctCountFunction(AggregateFunction):
    """Exact distinct count. The partial state is the distinct values,
    ascending, as a 1-D array of :func:`distinct_dtype` — the empty
    state a zero-length int64 array, which merges skip, so it never
    changes a dtype; ``finalize`` is its length.

    A state is built by sorting and keeping the first value of each run
    and states merge N-way — concatenate, sort, keep run starts once —
    except on a few values, where a Python set does the same work
    cheaper (``DISTINCT_SET_MAX``). A group-by's state column is a list
    of such arrays, built and merged by one sort over (group, value)
    for all groups.
    """

    numeric_only = False

    def init_empty(self) -> np.ndarray:
        return np.empty(0, _INT64)

    def aggregate(self, values: np.ndarray) -> np.ndarray:
        dtype = distinct_dtype(values.dtype)
        if len(values) <= DISTINCT_SET_MAX:
            return distinct_state(values.tolist(), dtype)
        return sorted_unique(values.astype(dtype, copy=False))

    def aggregate_grouped(self, values, codes, num_groups):
        return _distinct_grouped(values.astype(distinct_dtype(values.dtype),
                                               copy=False),
                                 codes, num_groups)

    def merge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.merge_many([a, b])

    def merge_many(self, states: list[np.ndarray]) -> np.ndarray:
        live = [state for state in states if len(state)]
        if len(live) < 2:
            return live[0] if live else self.init_empty()
        if sum(map(len, live)) <= DISTINCT_SET_MAX:
            return distinct_state(
                chain.from_iterable(map(np.ndarray.tolist, live)),
                live[0].dtype)
        merged = np.concatenate(live)
        # Stable: the sort merges the sorted runs, and of equal values
        # (0.0 and -0.0) the first in input order stays, as a set keeps.
        merged.sort(kind="stable")
        return merged[run_starts(merged)]

    def merge_grouped(self, columns, codes, num_groups):
        states = list(chain.from_iterable(columns))
        lengths = np.fromiter(map(len, states), dtype=np.int64,
                              count=len(states))
        live = [state for state in states if len(state)]
        values = np.concatenate(live) if live else self.init_empty()
        return _distinct_grouped(values, np.repeat(codes, lengths),
                                 num_groups)

    def finalize(self, state: np.ndarray) -> int:
        return len(state)

    def finalize_grouped(self, column: list[np.ndarray]) -> np.ndarray:
        return np.fromiter(map(len, column), dtype=np.int64,
                           count=len(column))


def _distinct_grouped(values: np.ndarray, codes: np.ndarray,
                      num_groups: int) -> list[np.ndarray]:
    """The DISTINCTCOUNT state of each of ``num_groups`` groups, where
    ``codes[i]`` is the group of ``values[i]``: one sort over (group
    code, value) — a stable sort of the codes after one of the values
    — one run-start mask over both, one split by group."""
    order = np.argsort(values, kind="stable")
    order = order[np.argsort(codes[order], kind="stable")]
    values, codes = values[order], codes[order]
    keep = run_starts(values)
    keep[1:] |= codes[1:] != codes[:-1]
    values = values[keep]
    bounds = np.searchsorted(codes[keep], np.arange(num_groups + 1)).tolist()
    return [values[start:end] for start, end in zip(bounds, bounds[1:])]


class DistinctCountHllFunction(AggregateFunction):
    """Approximate distinct count with a mergeable HyperLogLog state.

    The sketch keeps the partial state at a fixed 4 KiB regardless of
    cardinality (~1.6% standard error at precision 12) — the bounded
    alternative to the exact set-based DISTINCTCOUNT, matching the
    sketch aggregations production Pinot later shipped.
    """

    numeric_only = False

    def __init__(self, precision: int = 12):
        self.precision = precision

    def _new(self):
        from repro.engine.sketches import HyperLogLog

        return HyperLogLog(self.precision)

    def init_empty(self):
        return self._new()

    def aggregate(self, values: np.ndarray):
        sketch = self._new()
        sketch.add_many(values)
        return sketch

    def aggregate_grouped(self, values, codes, num_groups):
        # Hash every value once with the vectorized bulk path, then
        # slice the *hashes* per group — register-identical to hashing
        # group by group, but one numpy pass instead of a Python loop.
        from repro.engine.sketches import hash64_array

        hashed = hash64_array(np.asarray(values))
        sorted_hashes, bounds = _group_slices(hashed, codes, num_groups)
        sketches = [self._new() for _ in range(num_groups)]
        for g, sketch in enumerate(sketches):
            sketch.add_hashes(sorted_hashes[bounds[g]:bounds[g + 1]])
        return sketches

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, state) -> int:
        return state.cardinality()


class PercentileFunction(AggregateFunction):
    """Exact percentile; the partial state is the raw value sample.

    Production Pinot offers PERCENTILEEST / T-digest variants with
    bounded state; an exact implementation keeps the reproduction's
    results deterministic and assertable.
    """

    def __init__(self, quantile: float):
        self.quantile = quantile

    def init_empty(self) -> tuple:
        return ()

    def aggregate(self, values: np.ndarray) -> tuple:
        return tuple(values.tolist())

    def aggregate_grouped(self, values, codes, num_groups):
        sorted_values, bounds = _group_slices(values, codes, num_groups)
        return [
            tuple(sorted_values[bounds[g]:bounds[g + 1]].tolist())
            for g in range(num_groups)
        ]

    def merge(self, a: tuple, b: tuple) -> tuple:
        return a + b

    def finalize(self, state: tuple) -> float | None:
        if not state:
            # Null marker: a percentile of no rows is not 0.0 (a real
            # p99 can be 0.0) — match how empty groups report elsewhere.
            return None
        return float(np.percentile(np.asarray(state), self.quantile))


class PercentileEstFunction(AggregateFunction):
    """Approximate percentile over a mergeable quantile sketch.

    The partial state is a :class:`~repro.engine.approx.QuantileSketch`
    — bounded size regardless of row count, deterministic, and exact
    below ``k`` values. Both engines build states by feeding values in
    document order, so partial states are identical across the
    vectorized and scalar paths.
    """

    def __init__(self, quantile: float):
        self.quantile = quantile

    def _new(self):
        from repro.engine.approx import QuantileSketch

        return QuantileSketch()

    def init_empty(self):
        return self._new()

    def aggregate(self, values: np.ndarray):
        sketch = self._new()
        sketch.add_many(values)
        return sketch

    def aggregate_grouped(self, values, codes, num_groups):
        sorted_values, bounds = _group_slices(values, codes, num_groups)
        sketches = [self._new() for _ in range(num_groups)]
        for g, sketch in enumerate(sketches):
            sketch.add_many(sorted_values[bounds[g]:bounds[g + 1]])
        return sketches

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, state) -> float | None:
        return state.quantile(self.quantile)


_FUNCTIONS: dict[AggFunc, AggregateFunction] = {
    AggFunc.COUNT: CountFunction(),
    AggFunc.SUM: SumFunction(),
    AggFunc.MIN: MinFunction(),
    AggFunc.MAX: MaxFunction(),
    AggFunc.AVG: AvgFunction(),
    AggFunc.MINMAXRANGE: MinMaxRangeFunction(),
    AggFunc.DISTINCTCOUNT: DistinctCountFunction(),
    AggFunc.DISTINCTCOUNTHLL: DistinctCountHllFunction(),
    AggFunc.PERCENTILE50: PercentileFunction(50.0),
    AggFunc.PERCENTILE90: PercentileFunction(90.0),
    AggFunc.PERCENTILE95: PercentileFunction(95.0),
    AggFunc.PERCENTILE99: PercentileFunction(99.0),
    AggFunc.PERCENTILEEST50: PercentileEstFunction(50.0),
    AggFunc.PERCENTILEEST90: PercentileEstFunction(90.0),
    AggFunc.PERCENTILEEST95: PercentileEstFunction(95.0),
    AggFunc.PERCENTILEEST99: PercentileEstFunction(99.0),
}


class _CountTotalFunction(CountFunction):
    """COUNT over pre-aggregated rows: add up the raw docs each row
    stands for instead of counting the rows."""

    def aggregate(self, values: np.ndarray) -> int:
        return int(values.sum())

    def aggregate_grouped(self, values, codes, num_groups):
        out = np.zeros(num_groups, dtype=np.int64)
        np.add.at(out, codes, values)
        return out


#: dtype of each :class:`Rollup` array as (part of) a state column.
_STATE_DTYPES = {"counts": np.int64, "sums": np.float64,
                 "mins": np.float64, "maxs": np.float64}

_REAGGREGATE: dict[str, AggregateFunction] = {
    "counts": _CountTotalFunction(),
    "sums": _FUNCTIONS[AggFunc.SUM],
    "mins": _FUNCTIONS[AggFunc.MIN],
    "maxs": _FUNCTIONS[AggFunc.MAX],
}


def function_for(aggregation: Aggregation) -> AggregateFunction:
    try:
        return _FUNCTIONS[aggregation.func]
    except KeyError:
        raise ExecutionError(
            f"unsupported aggregation {aggregation.func}"
        ) from None


def served_by_rollup(aggregation: Aggregation, rollup: Rollup) -> bool:
    """Whether ``rollup`` — the aggregated column as some pre-aggregated
    source keeps it — holds every array the aggregation's state is made
    of: the one eligibility rule of the METADATA, TIME_INDEX and
    STAR_TREE plan kinds."""
    needed = function_for(aggregation).rollup_inputs
    return bool(needed) and all(
        getattr(rollup, name) is not None for name in needed
    )
