"""Column-wise validation (``Schema.normalize_columns``,
``FieldSpec.coerce_all``) against the row path (``Schema.normalize``).

Properties, for any schema and any batch:

* when every record normalizes, ``normalize_columns`` is the row path
  transposed — the same values of the same Python types, down to the
  element types of multi-value cells and the sign of a zero;
* when some record does not, ``normalize_columns`` raises
  ``SchemaError`` too;
* ``SegmentBuilder.add_all`` keeps exactly the records ahead of the
  first invalid one and raises what ``normalize`` raises for it (type
  and message), as a record-at-a-time loop does.

Explicit cases cover slices of 4 095 / 4 096 / 4 097 rows (the builder
validates 4 096 at a time) and numpy scalars.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, FieldSpec, dimension, metric
from repro.errors import SchemaError
from repro.segment.builder import _APPEND_ROWS, SegmentBuilder

NAMES = ["a", "b", "c", "d"]
FLOAT32_MAX = float(np.finfo(np.float32).max)

#: Cells ``coerce`` returns as they are, per type.
CANONICAL = {
    DataType.INT: st.integers(-2**31, 2**31 - 1),
    DataType.LONG: st.integers(-2**63, 2**63 - 1),
    DataType.FLOAT: st.floats(allow_nan=False, width=32),
    DataType.DOUBLE: st.floats(allow_nan=False),
    DataType.BOOLEAN: st.booleans(),
    DataType.STRING: st.text(max_size=4),
}

#: Everything else a producer might send: values of another type that
#: coerce, and values that must be refused.
OTHER = st.one_of(
    st.integers(-3, 3),  # int in FLOAT / DOUBLE / STRING / BOOLEAN
    st.booleans(),  # bool in INT / LONG (refused)
    st.sampled_from([2**31, -2**31 - 1, 2**63, -2**63 - 1]),  # out of range
    st.sampled_from([0.0, -0.0, 1.5, 1e39, -1e39, float("inf"),
                     float("nan")]),
    st.sampled_from(["42", "-7", "1.5", "true", "FALSE", "0", "nan", "x",
                     ""]),
    st.sampled_from([np.int64(5), np.int32(-3), np.float64(2.5),
                     np.float32(0.25), np.bool_(True), np.int64(2**40)]),
)


@st.composite
def schemas(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                          unique=True))
    fields = []
    for name in names:
        dtype = draw(st.sampled_from(list(DataType)))
        multi = draw(st.booleans())
        default = draw(st.none() | CANONICAL[dtype])
        fields.append(FieldSpec(name, dtype, multi_value=multi,
                                default=default))
    return Schema("t", fields)


def cells_for(spec, canonical_only):
    scalar = CANONICAL[spec.dtype]
    if not canonical_only:
        scalar = scalar | OTHER
    cell = st.none() | scalar
    if spec.multi_value:
        # A list (or tuple) of elements, or a lone scalar.
        cell = cell | st.lists(scalar, max_size=3) | st.tuples(scalar)
    return cell


@st.composite
def batches(draw, schema):
    # Most columns hold only canonical cells (the one-probe path); the
    # rest mix in anything.
    strategies = {spec.name: cells_for(spec, draw(st.booleans()))
                  for spec in schema}
    records = []
    for __ in range(draw(st.integers(1, 12))):
        record = {}
        for name, cell in strategies.items():
            if draw(st.integers(0, 9)):  # else the column is missing
                record[name] = draw(cell)
        if not draw(st.integers(0, 24)):
            record["unknown"] = 1
        records.append(record)
    return records


def typed(cell, exact=True):
    """A cell as a comparable value that also tells types apart, and
    (``exact``) the sign of a zero: a segment's dictionary holds one of
    ``0.0`` and ``-0.0``, whichever came first."""
    if isinstance(cell, list):
        return ("list", [typed(value, exact) for value in cell])
    return (type(cell).__name__, repr(cell) if exact else cell)


def row_path(schema, records):
    """What validating record by record keeps, and what it raises."""
    kept = []
    for record in records:
        try:
            kept.append(schema.normalize(record))
        except SchemaError as exc:
            return kept, exc
    return kept, None


def transposed(schema, rows, exact=True):
    return {name: [typed(row[name], exact) for row in rows]
            for name in schema.column_names}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_columns_are_the_row_path_transposed(data):
    schema = data.draw(schemas())
    records = data.draw(batches(schema))
    kept, error = row_path(schema, records)
    if error is not None:
        with pytest.raises(SchemaError):
            schema.normalize_columns(records)
        return
    columns = schema.normalize_columns(records)
    assert list(columns) == list(schema.column_names)
    assert ({name: [typed(cell) for cell in cells]
             for name, cells in columns.items()}
            == transposed(schema, kept))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_all_keeps_what_the_row_path_keeps(data):
    schema = data.draw(schemas())
    records = data.draw(batches(schema))
    kept, error = row_path(schema, records)
    builder = SegmentBuilder("s", "t", schema)
    if error is None:
        builder.add_all(records)
    else:
        with pytest.raises(type(error)) as raised:
            builder.add_all(records)
        assert str(raised.value) == str(error)
    assert len(builder) == len(kept)
    assert (transposed(schema, builder.records(), exact=False)
            == transposed(schema, kept, exact=False))


def test_coerce_all_keeps_canonical_cells_as_they_are():
    cells = [3, None, 5]
    spec = metric("m", DataType.LONG)
    out = spec.coerce_all(cells)
    assert out == [3, 0, 5] and out[0] is cells[0]
    floats = [1.5, 2.5]
    assert metric("m", DataType.DOUBLE).coerce_all(floats) is floats


def test_coerce_all_converts_what_is_not_canonical():
    assert [type(v) for v in metric("m", DataType.DOUBLE).coerce_all(
        [1, 2.5, np.float32(0.5), True])] == [float] * 4
    assert dimension("d", DataType.LONG).coerce_all(
        ["42", np.int64(7), 3]) == [42, 7, 3]
    assert dimension("d").coerce_all([1, "a", None]) == ["1", "a", "null"]
    assert dimension("d", DataType.INT, multi_value=True).coerce_all(
        [[1, "2"], 3, None, ()]) == [[1, 2], [3], [0], []]


@pytest.mark.parametrize("dtype, cells", [
    (DataType.INT, [1, 2**31]),
    (DataType.INT, [1, True]),
    (DataType.LONG, [-2**63 - 1]),
    (DataType.FLOAT, [1.0, 1e39]),
    (DataType.FLOAT, [float("nan"), 1.0]),
    (DataType.DOUBLE, [2.0, float("nan")]),
    (DataType.DOUBLE, [float("inf"), float("-inf"), float("nan")]),
], ids=["int-overflow", "int-bool", "long-underflow", "float32-overflow",
        "float-nan", "double-nan", "double-nan-among-infinities"])
def test_coerce_all_refuses_what_coerce_refuses(dtype, cells):
    with pytest.raises(SchemaError):
        dimension("d", dtype).coerce_all(cells)


def test_infinities_and_large_sums_pass():
    spec = metric("m", DataType.DOUBLE)
    assert spec.coerce_all([float("inf"), float("-inf"), 1.0]) == [
        float("inf"), float("-inf"), 1.0]
    big = [1e308, 1e308]  # the sum overflows; every cell is fine
    assert spec.coerce_all(big) == big
    assert metric("m", DataType.FLOAT).coerce_all(
        [FLOAT32_MAX, -FLOAT32_MAX]) == [FLOAT32_MAX, -FLOAT32_MAX]


# -- slices --------------------------------------------------------------------


def slice_schema():
    return Schema("t", [dimension("k", DataType.LONG),
                        dimension("s"),
                        metric("v", DataType.DOUBLE)])


def slice_records(count):
    return [{"k": i % 97, "s": f"s{i % 13}", "v": i / 4} for i in range(count)]


@pytest.mark.parametrize("count", [_APPEND_ROWS - 1, _APPEND_ROWS,
                                   _APPEND_ROWS + 1])
def test_every_slice_size_keeps_every_row(count):
    schema = slice_schema()
    records = slice_records(count)
    builder = SegmentBuilder("s", "t", schema)
    builder.add_all(iter(records))
    assert len(builder) == count
    assert builder.records() == [schema.normalize(r) for r in records]


@pytest.mark.parametrize("count, bad", [
    (count, bad)
    for count in (_APPEND_ROWS - 1, _APPEND_ROWS, _APPEND_ROWS + 1)
    for bad in (0, _APPEND_ROWS - 2, _APPEND_ROWS - 1, _APPEND_ROWS)
    if bad < count
])
def test_a_bad_record_at_a_slice_edge(count, bad):
    schema = slice_schema()
    records = slice_records(count)
    records[bad] = {"k": "not-a-number", "s": "x", "v": 1.0}
    builder = SegmentBuilder("s", "t", schema)
    with pytest.raises(SchemaError, match="cannot coerce 'not-a-number'"):
        builder.add_all(records)
    assert len(builder) == bad
    assert builder.records() == [schema.normalize(r) for r in records[:bad]]


def test_numpy_bools_build_the_python_bools_segment(tmp_path):
    """A producer that sends ``np.bool_`` cells gets the segment that
    Python bools build, byte for byte."""
    from repro.segment.io import INDEX_FILE, METADATA_FILE, write_segment

    schema = Schema("t", [dimension("k", DataType.LONG),
                          dimension("flag", DataType.BOOLEAN)])
    flags = [i % 3 == 0 for i in range(50)]

    def segment_bytes(cells, name):
        builder = SegmentBuilder("s", "t", schema)
        builder.add_all([{"k": i, "flag": cell}
                         for i, cell in enumerate(cells)])
        path = write_segment(builder.build(), tmp_path / name)
        return [(path / f).read_bytes() for f in (METADATA_FILE, INDEX_FILE)]

    assert (segment_bytes([np.bool_(f) for f in flags], "numpy")
            == segment_bytes(flags, "python"))
