"""A value is stored exactly as its column's ``coerce`` returns it.

``DataType.coerce(x)`` is the one rule: it is idempotent, and a cell
stored through any ingest path (the column-wise ``add_all``, the row
path ``add``, a consuming segment's snapshot and seal) reads back as
``coerce(x)``. For FLOAT that is the float32 ``x`` rounds to, so two
cells rounding to one float32 are one dictionary value, not a build
failure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension
from repro.errors import SchemaError
from repro.segment.builder import SegmentBuilder
from repro.segment.mutable import MutableSegment

FLOAT32_MAX = float(np.finfo(np.float32).max)

#: Per type: values a producer might send that the column accepts.
VALUES = {
    DataType.INT: st.one_of(st.integers(-2**31, 2**31 - 1),
                            st.builds(np.int32, st.integers(-9, 9))),
    DataType.LONG: st.one_of(st.integers(-2**63, 2**63 - 1),
                             st.builds(np.int64, st.integers(-9, 9))),
    DataType.FLOAT: st.one_of(
        st.floats(-FLOAT32_MAX, FLOAT32_MAX),
        st.floats(allow_nan=False, width=32).map(np.float32),
        st.floats(-1e6, 1e6).map(np.float64),
        st.integers(-2**40, 2**40),
        st.sampled_from([0.1, 0.10000000001, 16777217, float("inf")])),
    DataType.DOUBLE: st.one_of(st.floats(allow_nan=False),
                               st.integers(-2**40, 2**40),
                               st.floats(allow_nan=False, width=32)
                               .map(np.float32)),
    DataType.BOOLEAN: st.one_of(st.booleans(), st.builds(np.bool_,
                                                         st.booleans()),
                                st.sampled_from(["true", "0", 1])),
    DataType.STRING: st.one_of(st.text(max_size=4), st.integers(-9, 9)),
}


@st.composite
def typed_cells(draw):
    dtype = draw(st.sampled_from(list(VALUES)))
    return dtype, draw(st.lists(VALUES[dtype], min_size=1, max_size=8))


def same(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


def equal(a, b) -> bool:
    # 0.0 and -0.0 are one dictionary value: equal, and either may be
    # the one stored.
    return type(a) is type(b) and a == b


def read_back(segment) -> list:
    return [record["c"] for record in segment.iter_records()]


@settings(max_examples=150, deadline=None)
@given(typed_cells())
def test_coerce_is_idempotent_and_what_is_stored(case):
    dtype, cells = case
    coerced = [dtype.coerce(cell) for cell in cells]
    assert all(same(dtype.coerce(value), value) for value in coerced)

    schema = Schema("t", [dimension("c", dtype)])
    records = [{"c": cell} for cell in cells]
    column_wise = SegmentBuilder("a", "t", schema)
    column_wise.add_all(records)
    row_wise = SegmentBuilder("b", "t", schema)
    for record in records:
        row_wise.add(record)
    consuming = MutableSegment("m", "t", schema)
    consuming.index_all(records)
    stored = [read_back(column_wise.build()), read_back(row_wise.build()),
              read_back(consuming.snapshot()), read_back(consuming.seal())]
    for values in stored:
        assert len(values) == len(coerced)
        assert all(map(equal, values, coerced)), (values, coerced)


def test_float_cells_rounding_to_one_float32_are_one_value():
    schema = Schema("t", [dimension("f", DataType.FLOAT)])
    segment = MutableSegment("m", "t", schema)
    segment.index({"f": 0.1})
    segment.index({"f": 0.10000000001})
    assert segment.snapshot().column("f").dictionary.cardinality == 1
    sealed = segment.seal()
    assert [r["f"] for r in sealed.iter_records()] == [
        float(np.float32(0.1))] * 2


def test_float_coerce_is_the_float32_it_rounds_to():
    assert DataType.FLOAT.coerce(0.1) == float(np.float32(0.1))
    assert DataType.FLOAT.coerce(16777217) == 16777216.0
    assert DataType.DOUBLE.coerce(0.1) == 0.1
    try:
        DataType.FLOAT.coerce(1e39)
    except SchemaError:
        pass
    else:
        raise AssertionError("a FLOAT beyond float32 range is refused")
