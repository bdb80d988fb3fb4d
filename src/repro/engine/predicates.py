"""Compilation of leaf predicates into dictionary-id matches.

Because every column is dictionary-encoded with ids assigned in sorted
value order (§3.1), every PQL leaf predicate compiles into a union of
disjoint, contiguous *dictionary-id ranges*:

* ``c = v``            → ``[id, id + 1)``
* ``c != v``           → ``[0, id) ∪ [id + 1, card)``
* ``c IN (...)``       → one range per present value (coalesced)
* ``c < v`` etc.       → one range (sorted dictionary!)
* ``c BETWEEN a AND b``→ one range

The same :class:`IdMatch` feeds all three physical filter operators
(sorted-range, inverted-index, scan), which is what lets the planner
pick operators per segment by index availability (§3.3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlanningError
from repro.pql.ast_nodes import (
    Between,
    CompareOp,
    Comparison,
    In,
    Like,
    Predicate,
)
from repro.segment.dictionary import Dictionary
from repro.segment.segment import Column


@dataclass(frozen=True)
class IdMatch:
    """Disjoint sorted half-open dictionary-id ranges matching a leaf."""

    ranges: tuple[tuple[int, int], ...]
    cardinality: int

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    @property
    def is_all(self) -> bool:
        """True when every dictionary id matches — the 'predicate matches
        all values of a segment' special case (§3.3.4)."""
        return (
            len(self.ranges) == 1
            and self.ranges[0] == (0, self.cardinality)
        )

    @property
    def matched_ids(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)

    def selectivity(self) -> float:
        """Fraction of dictionary ids matched — the planner's cheap
        proxy for row selectivity."""
        if not self.cardinality:
            return 0.0
        return self.matched_ids / self.cardinality

    def id_array(self) -> np.ndarray:
        parts = [np.arange(lo, hi, dtype=np.int64) for lo, hi in self.ranges]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def mask_for(self, dict_ids: np.ndarray) -> np.ndarray:
        """Boolean mask of which entries in ``dict_ids`` match — always
        a new array, which the caller may write into.

        ``dict_ids`` are ids of this match's dictionary (``0 <= id <
        cardinality``), so a range that starts at id 0 or ends at the
        cardinality needs only its other bound: EQ, ``<``, ``>=`` and
        friends cost one comparison, a two-sided range two, NEQ's
        complement one per side. Many ranges (IN / NOT IN / LIKE over a
        large dictionary) use one binary search per entry against the
        flattened range boundaries — an id is inside some half-open
        range exactly when its insertion point is odd, so the whole
        batch is a single ``searchsorted`` instead of one comparison
        pass per range.
        """
        if not self.ranges:
            return np.zeros(len(dict_ids), dtype=bool)
        if len(self.ranges) <= 2:
            mask = self._range_mask(dict_ids, *self.ranges[0])
            for lo, hi in self.ranges[1:]:
                mask |= self._range_mask(dict_ids, lo, hi)
            return mask
        # _coalesce guarantees sorted, disjoint, non-adjacent ranges, so
        # the flattened boundaries are strictly increasing.
        boundaries = np.fromiter(
            (bound for id_range in self.ranges for bound in id_range),
            dtype=np.int64, count=2 * len(self.ranges),
        )
        positions = np.searchsorted(boundaries, dict_ids, side="right")
        return (positions & 1).astype(bool)

    def _range_mask(self, dict_ids: np.ndarray, lo: int,
                    hi: int) -> np.ndarray:
        if hi == lo + 1:
            return dict_ids == lo
        if lo == 0:
            return dict_ids < hi
        if hi == self.cardinality:
            return dict_ids >= lo
        mask = dict_ids >= lo
        mask &= dict_ids < hi
        return mask


def _coalesce(ranges: list[tuple[int, int]], cardinality: int) -> IdMatch:
    ranges = sorted((lo, hi) for lo, hi in ranges if hi > lo)
    merged: list[tuple[int, int]] = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return IdMatch(tuple(merged), cardinality)


def _complement(match: IdMatch) -> IdMatch:
    out: list[tuple[int, int]] = []
    cursor = 0
    for lo, hi in match.ranges:
        if cursor < lo:
            out.append((cursor, lo))
        cursor = hi
    if cursor < match.cardinality:
        out.append((cursor, match.cardinality))
    return IdMatch(tuple(out), match.cardinality)


def compile_leaf(predicate: Predicate, column: Column) -> IdMatch:
    """Compile one leaf predicate against a column's dictionary."""
    dictionary = column.dictionary
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate, dictionary)
    if isinstance(predicate, In):
        return _compile_in(predicate, dictionary)
    if isinstance(predicate, Between):
        value_lo = _coerce(dictionary, predicate.low)
        value_hi = _coerce(dictionary, predicate.high)
        lo, hi = dictionary.id_range_for(value_lo, value_hi)
        return _coalesce([(lo, hi)], dictionary.cardinality)
    if isinstance(predicate, Like):
        return _compile_like(predicate, dictionary)
    raise PlanningError(f"not a leaf predicate: {predicate!r}")


def _compile_like(predicate: Like, dictionary: Dictionary) -> IdMatch:
    """LIKE evaluates the pattern over the dictionary, not the rows:
    cardinality-many regex matches regardless of segment size."""
    import re

    from repro.common.types import DataType

    if dictionary.dtype is not DataType.STRING:
        raise PlanningError(
            f"LIKE requires a string column, {predicate.column!r} is "
            f"{dictionary.dtype.value}"
        )
    regex = re.compile(predicate.to_regex())
    ranges = [
        (dict_id, dict_id + 1)
        for dict_id in range(dictionary.cardinality)
        if regex.fullmatch(dictionary.value_of(dict_id)) is not None
    ]
    match = _coalesce(ranges, dictionary.cardinality)
    if predicate.negated:
        return _complement(match)
    return match


def _compile_comparison(predicate: Comparison,
                        dictionary: Dictionary) -> IdMatch:
    card = dictionary.cardinality
    value = _coerce(dictionary, predicate.value)
    op = predicate.op
    if op is CompareOp.EQ:
        dict_id = dictionary.id_of(value)
        ranges = [] if dict_id is None else [(dict_id, dict_id + 1)]
        return _coalesce(ranges, card)
    if op is CompareOp.NEQ:
        dict_id = dictionary.id_of(value)
        if dict_id is None:
            return IdMatch(((0, card),), card)
        return _complement(_coalesce([(dict_id, dict_id + 1)], card))
    if op is CompareOp.LT:
        lo, hi = dictionary.id_range_for(None, value, high_inclusive=False)
    elif op is CompareOp.LTE:
        lo, hi = dictionary.id_range_for(None, value, high_inclusive=True)
    elif op is CompareOp.GT:
        lo, hi = dictionary.id_range_for(value, None, low_inclusive=False)
    elif op is CompareOp.GTE:
        lo, hi = dictionary.id_range_for(value, None, low_inclusive=True)
    else:  # pragma: no cover - exhaustive enum
        raise PlanningError(f"unknown comparison op {op}")
    return _coalesce([(lo, hi)], card)


def _compile_in(predicate: In, dictionary: Dictionary) -> IdMatch:
    card = dictionary.cardinality
    ranges = []
    for value in predicate.values:
        dict_id = dictionary.id_of(_coerce(dictionary, value))
        if dict_id is not None:
            ranges.append((dict_id, dict_id + 1))
    match = _coalesce(ranges, card)
    if predicate.negated:
        return _complement(match)
    return match


def _coerce(dictionary: Dictionary, value):
    """Coerce a literal to the column type for dictionary comparison.

    PQL queries routinely write numeric literals for LONG columns and
    vice versa; comparing an ``int`` against a float dictionary (or the
    reverse) is fine, but strings must stay strings.
    """
    from repro.common.types import DataType

    if dictionary.dtype is DataType.STRING and not isinstance(value, str):
        return str(value)
    if dictionary.dtype is not DataType.STRING and isinstance(value, str):
        raise PlanningError(
            f"cannot compare string literal {value!r} against numeric "
            "column"
        )
    if dictionary.dtype in (DataType.INT, DataType.LONG) and isinstance(
        value, float
    ):
        return value  # numpy handles float-vs-int comparison correctly
    return value
