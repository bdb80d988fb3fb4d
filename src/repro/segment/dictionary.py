"""Sorted dictionary encoding for segment columns.

Pinot dictionary-encodes column values (§3.1): each distinct value is
assigned an integer id, and the forward index stores bit-packed ids.
Ids are assigned in *sorted value order*, which has a crucial property
exploited by the query engine: a range predicate on values translates
into a contiguous range of dictionary ids, so range filters reduce to
integer comparisons on the forward index.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

from repro.common.types import DataType
from repro.errors import SegmentError


class Dictionary:
    """An immutable sorted dictionary for one column.

    ``values`` must be the distinct values in ascending order; id ``i``
    maps to ``values[i]``.
    """

    def __init__(self, dtype: DataType, values: Sequence[Any]):
        self.dtype = dtype
        if dtype is DataType.STRING:
            self._values = np.asarray(values, dtype=object)
            self._sorted_key = np.asarray(values, dtype=object)
        else:
            self._values = np.asarray(values, dtype=dtype.numpy_dtype)
            self._sorted_key = self._values
        if len(self._values) == 0:
            raise SegmentError("dictionary must contain at least one value")
        # Values must be strictly ascending for id-order == value-order.
        ascending = self._values[:-1] < self._values[1:]
        if not ascending.all():
            i = int(np.argmin(ascending)) + 1
            raise SegmentError(
                "dictionary values must be strictly ascending; "
                f"saw {values[i - 1]!r} before {values[i]!r}"
            )

    @classmethod
    def build(cls, dtype: DataType, raw_values: Iterable[Any]) -> "Dictionary":
        """Build from raw (unsorted, duplicated) column values."""
        distinct = sorted(set(raw_values))
        if not distinct:
            raise SegmentError("cannot build a dictionary from no values")
        return cls(dtype, distinct)

    # -- size / introspection -------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    @property
    def cardinality(self) -> int:
        return len(self._values)

    @property
    def min_value(self) -> Any:
        return self._values[0]

    @property
    def max_value(self) -> Any:
        return self._values[-1]

    @cached_property
    def nbytes(self) -> int:
        if self.dtype is DataType.STRING:
            return sum(len(str(v)) for v in self._values)
        return self._values.nbytes

    # -- lookups -----------------------------------------------------------

    def value_of(self, dict_id: int) -> Any:
        """The value for a dictionary id."""
        value = self._values[dict_id]
        return value.item() if isinstance(value, np.generic) else value

    def values_of(self, dict_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_of`."""
        return self._values[dict_ids]

    def id_of(self, value: Any) -> int | None:
        """The id for ``value``, or None if the value is absent."""
        idx = int(self._sorted_key.searchsorted(value))
        if idx < len(self._values) and self._values[idx] == value:
            return idx
        return None

    def encode(self, raw_values: Iterable[Any]) -> np.ndarray:
        """Encode raw values to ids; raises if any value is absent."""
        values = list(raw_values)
        ids = np.searchsorted(self._sorted_key, values)
        ids = np.clip(ids, 0, len(self._values) - 1)
        absent = self._values[ids] != np.asarray(
            values, dtype=object if self.dtype is DataType.STRING else None
        )
        if absent.any():
            raise SegmentError(
                f"value {values[int(np.argmax(absent))]!r} not in dictionary"
            )
        return ids.astype(np.uint32)

    # -- range support (what makes sorted dictionaries worth it) ---------

    def id_range_for(self, low: Any | None, high: Any | None,
                     low_inclusive: bool = True,
                     high_inclusive: bool = True) -> tuple[int, int]:
        """Dictionary-id half-open range [lo, hi) matching a value range.

        ``None`` bounds are unbounded. Because ids are assigned in value
        order, any value range corresponds to one contiguous id range.
        """
        if low is None:
            lo = 0
        else:
            side = "left" if low_inclusive else "right"
            lo = int(self._sorted_key.searchsorted(low, side=side))
        if high is None:
            hi = len(self._values)
        else:
            side = "right" if high_inclusive else "left"
            hi = int(self._sorted_key.searchsorted(high, side=side))
        return lo, max(lo, hi)

    def to_list(self) -> list[Any]:
        return [self.value_of(i) for i in range(len(self._values))]
