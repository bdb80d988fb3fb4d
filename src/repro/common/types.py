"""Data types and field specifications for the Pinot data model.

Per §3.1 of the paper, supported data types are integers of various
lengths, floating point numbers, strings and booleans, plus arrays
(multi-value columns) of those types. Each column is either a
*dimension*, a *metric*, or the table's special *time column*.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import NoneType
from typing import Any

import numpy as np

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Scalar data types supported by Pinot columns."""

    INT = "INT"
    LONG = "LONG"
    FLOAT = "FLOAT"
    DOUBLE = "DOUBLE"
    BOOLEAN = "BOOLEAN"
    STRING = "STRING"

    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC_TYPES

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used for raw (non-dictionary) storage."""
        return _NUMPY_DTYPES[self]

    @property
    def default_value(self) -> Any:
        """Default cell value used when a column is added to an existing
        schema (§5.2: on-the-fly schema evolution fills old segments with
        a default)."""
        return _DEFAULTS[self]

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type's canonical Python representation.

        Raises :class:`SchemaError` if the value cannot represent this
        type (e.g. a non-numeric string for INT).
        """
        try:
            return _COERCERS[self._value_](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(
                f"cannot coerce {value!r} to {self.value}"
            ) from exc

    @property
    def python_type(self) -> type:
        """The type :meth:`coerce` returns."""
        return _CANONICAL[self._value_][0]

    def coerce_typed(self, cells: list) -> list | None:
        """:meth:`coerce` of each of ``cells``, all of
        :attr:`python_type`, from the coercer's range test made once for
        the column (and, for FLOAT, one float32 rounding of the whole
        column). None says only that some cell needs the coercer, which
        may still accept it."""
        return _CANONICAL[self._value_][1](cells) if cells else cells


_NUMERIC_TYPES = frozenset(
    {DataType.INT, DataType.LONG, DataType.FLOAT, DataType.DOUBLE}
)

_NUMPY_DTYPES = {
    DataType.INT: np.dtype(np.int32),
    DataType.LONG: np.dtype(np.int64),
    DataType.FLOAT: np.dtype(np.float32),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.STRING: np.dtype(object),
}

_DEFAULTS = {
    DataType.INT: 0,
    DataType.LONG: 0,
    DataType.FLOAT: 0.0,
    DataType.DOUBLE: 0.0,
    DataType.BOOLEAN: False,
    DataType.STRING: "null",
}


_INT_RANGE = (-(2**31), 2**31)
_LONG_RANGE = (-(2**63), 2**63)


def _coerce_int(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError("booleans are not integers")
    out = int(value)
    if not _INT_RANGE[0] <= out < _INT_RANGE[1]:
        raise ValueError(f"{out} out of range for INT")
    return out


def _coerce_long(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError("booleans are not longs")
    out = int(value)
    if not _LONG_RANGE[0] <= out < _LONG_RANGE[1]:
        raise ValueError(f"{out} out of range for LONG")
    return out


#: The smallest magnitude float32 rounds to infinity.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def _coerce_double(value: Any) -> float:
    out = float(value)
    if out != out:
        raise ValueError("NaN is not a value")
    return out


def round_float32(value: Any) -> float:
    """The float32 nearest a number, as a Python float: what a FLOAT
    column stores for a cell and compares a query literal as. Beyond
    float32's range it is an infinity."""
    if abs(value) >= _FLOAT32_OVERFLOW:
        return math.inf if value > 0 else -math.inf
    return float(np.float32(value))


def _coerce_float(value: Any) -> float:
    out = _coerce_double(value)
    if _FLOAT32_OVERFLOW <= abs(out) < math.inf:
        raise ValueError(f"{out} out of range for FLOAT")
    return round_float32(out)


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return bool(value)
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("true", "1"):
            return True
        if lowered in ("false", "0"):
            return False
    raise ValueError(f"{value!r} is not a boolean")


#: By member value: a look-up per cell, and an enum member hashes
#: through Python code where its value, a string, does not.
_COERCERS = {
    "INT": _coerce_int,
    "LONG": _coerce_long,
    "FLOAT": _coerce_float,
    "DOUBLE": _coerce_double,
    "BOOLEAN": _coerce_bool,
    "STRING": str,
}


def _ints_within(bounds: tuple[int, int]):
    low, high = bounds
    return lambda cells: (cells if low <= min(cells) and max(cells) < high
                          else None)


def _finite(cells: list) -> list | None:
    # A float sum is finite only when no cell is NaN or infinite;
    # anything else (a sum that overflows too) goes cell by cell.
    return cells if math.isfinite(sum(cells)) else None


def _rounded_float32(cells: list) -> list | None:
    if (_finite(cells) is None or min(cells) <= -_FLOAT32_OVERFLOW
            or max(cells) >= _FLOAT32_OVERFLOW):
        return None
    return np.array(cells, dtype=np.float32).tolist()


def _anything(cells: list) -> list:
    return cells


#: By member value: the type each coercer returns, and what a column of
#: cells already of that type becomes without a coercer call per cell
#: (None: some cell needs one).
_CANONICAL = {
    "INT": (int, _ints_within(_INT_RANGE)),
    "LONG": (int, _ints_within(_LONG_RANGE)),
    "FLOAT": (float, _rounded_float32),
    "DOUBLE": (float, _finite),
    "BOOLEAN": (bool, _anything),
    "STRING": (str, _anything),
}


class FieldRole(enum.Enum):
    """The role a column plays in the table (§3.1)."""

    DIMENSION = "DIMENSION"
    METRIC = "METRIC"
    TIME = "TIME"


@dataclass(frozen=True)
class FieldSpec:
    """Specification of a single column in a schema.

    Attributes:
        name: Column name; must be a valid identifier.
        dtype: Scalar data type of the column (element type for
            multi-value columns).
        role: Dimension, metric or time column.
        multi_value: Whether cells are arrays of ``dtype`` rather than
            scalars. Only dimensions may be multi-value.
        default: Default cell value; falls back to the type default.
    """

    name: str
    dtype: DataType
    role: FieldRole = FieldRole.DIMENSION
    multi_value: bool = False
    default: Any = field(default=None)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.multi_value and self.role is not FieldRole.DIMENSION:
            raise SchemaError(
                f"column {self.name!r}: only dimensions may be multi-value"
            )
        if self.role is FieldRole.METRIC and not self.dtype.is_numeric:
            raise SchemaError(
                f"metric column {self.name!r} must be numeric, got "
                f"{self.dtype.value}"
            )
        if self.role is FieldRole.TIME and self.dtype not in (
            DataType.INT,
            DataType.LONG,
        ):
            raise SchemaError(
                f"time column {self.name!r} must be INT or LONG"
            )
        if self.default is None:
            object.__setattr__(self, "default", self.dtype.default_value)
        else:
            object.__setattr__(self, "default", self.dtype.coerce(self.default))

    @property
    def is_dimension(self) -> bool:
        return self.role is FieldRole.DIMENSION

    @property
    def is_metric(self) -> bool:
        return self.role is FieldRole.METRIC

    @property
    def is_time(self) -> bool:
        return self.role is FieldRole.TIME

    def coerce(self, value: Any) -> Any:
        """Coerce one cell (scalar or array, per ``multi_value``)."""
        if value is None:
            return [self.default] if self.multi_value else self.default
        if self.multi_value:
            if isinstance(value, (str, bytes)) or not hasattr(
                value, "__iter__"
            ):
                # A lone scalar is accepted as a single-element array.
                return [self.dtype.coerce(value)]
            return [self.dtype.coerce(v) for v in value]
        return self.dtype.coerce(value)

    def coerce_all(self, cells: list) -> list:
        """:meth:`coerce` of every cell. A single-value column whose
        cells all have the type ``coerce`` returns (None aside) is
        recognised with one type probe and coerced as a whole
        (:meth:`DataType.coerce_typed`), a None read as the default; any
        other column goes cell by cell."""
        if not self.multi_value:
            kinds = set(map(type, cells))
            if kinds <= {self.dtype.python_type, NoneType}:
                if NoneType in kinds:
                    default = self.default
                    cells = [default if cell is None else cell
                             for cell in cells]
                typed = self.dtype.coerce_typed(cells)
                if typed is not None:
                    return typed
        return list(map(self.coerce, cells))


def dimension(name: str, dtype: DataType = DataType.STRING,
              multi_value: bool = False) -> FieldSpec:
    """Convenience constructor for a dimension column."""
    return FieldSpec(name, dtype, FieldRole.DIMENSION, multi_value)


def metric(name: str, dtype: DataType = DataType.LONG) -> FieldSpec:
    """Convenience constructor for a metric column."""
    return FieldSpec(name, dtype, FieldRole.METRIC)


def time_column(name: str, dtype: DataType = DataType.LONG) -> FieldSpec:
    """Convenience constructor for the table's time column."""
    return FieldSpec(name, dtype, FieldRole.TIME)
