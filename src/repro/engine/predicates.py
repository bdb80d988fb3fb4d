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

Only the id look-ups depend on the segment: a leaf is compiled once per
query (:func:`compile_predicate_leaf` — literals coerced to the column's
type, the match function chosen) and bound to each segment's dictionary
by its ``bind``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.common.types import DataType, round_float32
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


class IdMatch(NamedTuple):
    """Disjoint sorted half-open dictionary-id ranges matching a leaf
    (a tuple: every segment's plan makes one per leaf)."""

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


class CompiledLeaf(NamedTuple):
    """A leaf predicate compiled once per query: literals coerced to its
    column's type, the operator and its range sides decided. What is
    left is one segment's dictionary look-ups, which :meth:`bind` does.
    """

    predicate: Predicate
    column: str
    #: ``dictionary -> IdMatch`` for one segment; a leaf no segment can
    #: evaluate (a string literal against a numeric column, LIKE on a
    #: number) raises its :class:`PlanningError` here, when bound, so a
    #: leaf no plan reaches never fails a query.
    bind: Callable[[Dictionary], IdMatch]


def compile_predicate_leaf(predicate: Predicate,
                           dtype: DataType) -> CompiledLeaf:
    """Compile one leaf for a column of type ``dtype``."""
    try:
        bind = _binder(predicate, dtype)
    except PlanningError as error:
        def bind(dictionary: Dictionary, error=error) -> IdMatch:
            raise PlanningError(str(error))
    return CompiledLeaf(predicate, predicate.column, bind)


def compile_leaf(predicate: Predicate, column: Column) -> IdMatch:
    """Compile one leaf predicate against a column's dictionary."""
    dictionary = column.dictionary
    return compile_predicate_leaf(predicate, dictionary.dtype).bind(
        dictionary)


#: A comparison as a one-sided range: (is the literal the low bound,
#: is the bound inclusive).
_RANGE_SIDES = {
    CompareOp.LT: (False, False),
    CompareOp.LTE: (False, True),
    CompareOp.GT: (True, False),
    CompareOp.GTE: (True, True),
}


def _binder(predicate: Predicate,
            dtype: DataType) -> Callable[[Dictionary], IdMatch]:
    """The leaf's literals coerced and its match function chosen; what
    is left takes one segment's dictionary."""
    if isinstance(predicate, Comparison):
        value = _coerce(dtype, predicate.value)
        if predicate.op is CompareOp.EQ:
            return partial(_eq_match, value)
        if predicate.op is CompareOp.NEQ:
            return partial(_neq_match, value)
        is_low, inclusive = _RANGE_SIDES[predicate.op]
        if is_low:
            return partial(_range_match, value, None, inclusive, True)
        return partial(_range_match, None, value, True, inclusive)
    if isinstance(predicate, Between):
        return partial(_range_match, _coerce(dtype, predicate.low),
                       _coerce(dtype, predicate.high), True, True)
    if isinstance(predicate, In):
        return partial(_in_match,
                       [_coerce(dtype, value) for value in predicate.values],
                       predicate.negated)
    if isinstance(predicate, Like):
        if dtype is not DataType.STRING:
            raise PlanningError(
                f"LIKE requires a string column, {predicate.column!r} is "
                f"{dtype.value}"
            )
        return partial(_like_match, re.compile(predicate.to_regex()),
                       predicate.negated)
    raise PlanningError(f"not a leaf predicate: {predicate!r}")


def _eq_match(value, dictionary: Dictionary) -> IdMatch:
    dict_id = dictionary.id_of(value)
    return IdMatch(() if dict_id is None else ((dict_id, dict_id + 1),),
                   dictionary.cardinality)


def _neq_match(value, dictionary: Dictionary) -> IdMatch:
    return _complement(_eq_match(value, dictionary))


def _range_match(low, high, low_inclusive: bool, high_inclusive: bool,
                 dictionary: Dictionary) -> IdMatch:
    """A value range (None: unbounded) is one contiguous id range in a
    sorted dictionary."""
    lo, hi = dictionary.id_range_for(low, high, low_inclusive,
                                     high_inclusive)
    return IdMatch(((lo, hi),) if hi > lo else (), dictionary.cardinality)


def _in_match(values: list, negated: bool,
              dictionary: Dictionary) -> IdMatch:
    ranges = []
    for value in values:
        dict_id = dictionary.id_of(value)
        if dict_id is not None:
            ranges.append((dict_id, dict_id + 1))
    match = _coalesce(ranges, dictionary.cardinality)
    return _complement(match) if negated else match


def _like_match(regex: re.Pattern, negated: bool,
                dictionary: Dictionary) -> IdMatch:
    """LIKE evaluates the pattern over the dictionary, not the rows:
    cardinality-many regex matches regardless of segment size."""
    card = dictionary.cardinality
    match = _coalesce([
        (dict_id, dict_id + 1) for dict_id in range(card)
        if regex.fullmatch(dictionary.value_of(dict_id)) is not None
    ], card)
    return _complement(match) if negated else match


def _coerce(dtype: DataType, value):
    """Coerce a literal to the column type for dictionary comparison.

    PQL queries routinely write numeric literals for LONG columns and
    vice versa; comparing an ``int`` against a float dictionary (or the
    reverse) is fine — numpy compares them correctly — but strings must
    stay strings.
    """
    if dtype is DataType.STRING:
        return value if isinstance(value, str) else str(value)
    if isinstance(value, str):
        raise PlanningError(
            f"cannot compare string literal {value!r} against numeric "
            "column"
        )
    if dtype is DataType.FLOAT:
        return round_float32(value)  # the value the column would store
    return value
