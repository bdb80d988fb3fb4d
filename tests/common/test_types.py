"""Unit tests for the data-type layer."""

import numpy as np
import pytest

from repro.common.types import (
    DataType,
    FieldRole,
    FieldSpec,
    dimension,
    metric,
    time_column,
)
from repro.errors import SchemaError


class TestDataTypeCoercion:
    def test_int_from_string(self):
        assert DataType.INT.coerce("42") == 42

    def test_int_rejects_overflow(self):
        with pytest.raises(SchemaError):
            DataType.INT.coerce(2**31)

    def test_long_accepts_wide_values(self):
        assert DataType.LONG.coerce(2**40) == 2**40

    def test_long_rejects_overflow(self):
        with pytest.raises(SchemaError):
            DataType.LONG.coerce(2**63)

    def test_int_rejects_bool(self):
        with pytest.raises(SchemaError):
            DataType.INT.coerce(True)

    def test_double_from_int(self):
        assert DataType.DOUBLE.coerce(3) == 3.0

    def test_string_from_number(self):
        assert DataType.STRING.coerce(17) == "17"

    def test_boolean_from_string(self):
        assert DataType.BOOLEAN.coerce("true") is True
        assert DataType.BOOLEAN.coerce("FALSE") is False

    def test_boolean_from_numpy_bool(self):
        assert DataType.BOOLEAN.coerce(np.bool_(True)) is True
        assert DataType.BOOLEAN.coerce(np.bool_(False)) is False

    def test_boolean_rejects_garbage(self):
        with pytest.raises(SchemaError):
            DataType.BOOLEAN.coerce("maybe")

    def test_int_rejects_garbage_string(self):
        with pytest.raises(SchemaError):
            DataType.INT.coerce("not-a-number")

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.DOUBLE])
    @pytest.mark.parametrize("value", [float("nan"), "nan", np.float64("nan"),
                                       np.float32("nan")],
                             ids=["float", "str", "float64", "float32"])
    def test_nan_is_rejected(self, dtype, value):
        with pytest.raises(SchemaError, match="cannot coerce"):
            dtype.coerce(value)

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.DOUBLE])
    def test_infinities_stay_legal(self, dtype):
        assert dtype.coerce(float("inf")) == float("inf")
        assert dtype.coerce("-inf") == float("-inf")

    @pytest.mark.parametrize("dtype", [DataType.INT, DataType.LONG])
    def test_integer_from_an_infinity_is_a_schema_error(self, dtype):
        with pytest.raises(SchemaError, match="cannot coerce inf"):
            dtype.coerce(float("inf"))

    def test_float_rejects_what_float32_cannot_hold(self):
        limit = float(np.finfo(np.float32).max)
        assert DataType.FLOAT.coerce(limit) == limit
        assert DataType.FLOAT.coerce(-limit) == -limit
        for value in (1e39, -1e39, 2.0**128, 1e308):
            with pytest.raises(SchemaError, match="FLOAT"):
                DataType.FLOAT.coerce(value)
        assert DataType.DOUBLE.coerce(1e39) == 1e39

    def test_float_range_is_float32_rounding(self):
        """The largest magnitude that float32 rounds to a finite value
        is accepted, as that float32; the next float64 up is not."""
        overflow = 2.0**128 - 2.0**103
        below = float(np.nextafter(overflow, 0.0))
        with np.errstate(over="ignore"):
            assert np.isfinite(np.float32(below))
            assert np.isinf(np.float32(overflow))
        assert DataType.FLOAT.coerce(below) == float(np.finfo(np.float32).max)
        with pytest.raises(SchemaError):
            DataType.FLOAT.coerce(overflow)

    def test_numeric_classification(self):
        assert DataType.INT.is_numeric
        assert DataType.DOUBLE.is_numeric
        assert not DataType.STRING.is_numeric
        assert not DataType.BOOLEAN.is_numeric

    def test_numpy_dtypes(self):
        assert DataType.LONG.numpy_dtype == np.dtype(np.int64)
        assert DataType.FLOAT.numpy_dtype == np.dtype(np.float32)

    def test_defaults(self):
        assert DataType.INT.default_value == 0
        assert DataType.STRING.default_value == "null"
        assert DataType.BOOLEAN.default_value is False


class TestFieldSpec:
    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            FieldSpec("bad name", DataType.INT)

    def test_metric_must_be_numeric(self):
        with pytest.raises(SchemaError):
            FieldSpec("m", DataType.STRING, FieldRole.METRIC)

    def test_time_column_must_be_integral(self):
        with pytest.raises(SchemaError):
            FieldSpec("t", DataType.DOUBLE, FieldRole.TIME)
        spec = FieldSpec("t", DataType.LONG, FieldRole.TIME)
        assert spec.is_time

    def test_only_dimensions_can_be_multi_value(self):
        with pytest.raises(SchemaError):
            FieldSpec("m", DataType.LONG, FieldRole.METRIC, multi_value=True)

    def test_default_is_type_default(self):
        assert dimension("d").default == "null"
        assert metric("m").default == 0

    def test_explicit_default_is_coerced(self):
        spec = FieldSpec("d", DataType.INT, default="7")
        assert spec.default == 7

    def test_coerce_scalar(self):
        assert dimension("d", DataType.LONG).coerce("5") == 5

    def test_coerce_none_gives_default(self):
        assert dimension("d").coerce(None) == "null"

    def test_coerce_multi_value_list(self):
        spec = dimension("tags", DataType.STRING, multi_value=True)
        assert spec.coerce(["a", 1]) == ["a", "1"]

    def test_coerce_multi_value_scalar_wraps(self):
        spec = dimension("tags", DataType.STRING, multi_value=True)
        assert spec.coerce("solo") == ["solo"]

    def test_coerce_multi_value_none_gives_default_list(self):
        spec = dimension("tags", DataType.STRING, multi_value=True)
        assert spec.coerce(None) == ["null"]

    def test_convenience_constructors(self):
        assert dimension("d").role is FieldRole.DIMENSION
        assert metric("m").role is FieldRole.METRIC
        assert time_column("t").role is FieldRole.TIME
