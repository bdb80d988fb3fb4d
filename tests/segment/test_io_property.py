"""Property-based round-trip test of the on-disk segment format:
random schemas and records must survive write + load exactly."""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, FieldRole, FieldSpec
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.io import load_segment, write_segment

FLOAT32_MAX = float(np.finfo(np.float32).max)

scalar_dtypes = st.sampled_from([
    DataType.INT, DataType.LONG, DataType.FLOAT, DataType.DOUBLE,
    DataType.STRING, DataType.BOOLEAN,
])


def value_for(dtype, rng_draw):
    if dtype is DataType.STRING:
        return rng_draw(st.text(alphabet="abcxyz", min_size=0, max_size=6))
    if dtype is DataType.BOOLEAN:
        return rng_draw(st.booleans())
    if dtype in (DataType.INT, DataType.LONG):
        return rng_draw(st.integers(-1000, 1000))
    if dtype is DataType.FLOAT:
        # Any float64 float32 can hold: the column stores the float32
        # it rounds to, so two cells may become one value.
        return rng_draw(st.one_of(st.floats(-FLOAT32_MAX, FLOAT32_MAX),
                                  st.sampled_from([0.1, 0.10000000001])))
    return rng_draw(st.floats(allow_nan=False))


@st.composite
def schema_and_records(draw):
    num_dims = draw(st.integers(1, 3))
    specs = []
    for i in range(num_dims):
        dtype = draw(scalar_dtypes)
        multi = dtype is DataType.STRING and draw(st.booleans())
        specs.append(FieldSpec(f"d{i}", dtype, FieldRole.DIMENSION,
                               multi_value=multi))
    if draw(st.booleans()):
        specs.append(FieldSpec("m0", DataType.LONG, FieldRole.METRIC))
    schema = Schema("t", specs)

    num_rows = draw(st.integers(1, 30))
    records = []
    for __ in range(num_rows):
        record = {}
        for spec in specs:
            if spec.multi_value:
                record[spec.name] = draw(st.lists(
                    st.text(alphabet="pqr", min_size=0, max_size=3),
                    max_size=3,
                ))
            else:
                record[spec.name] = value_for(spec.dtype, draw)
        records.append(record)
    sortable = [s.name for s in specs if not s.multi_value]
    sorted_column = draw(st.sampled_from([None] + sortable))
    return schema, records, sorted_column


class TestIoRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(schema_and_records())
    def test_roundtrip(self, case):
        schema, records, sorted_column = case
        config = SegmentConfig(
            sorted_column=sorted_column,
            inverted_columns=(schema.fields[0].name,),
        )
        builder = SegmentBuilder("prop", "t", schema, config)
        builder.add_all(records)
        segment = builder.build()

        directory = Path(tempfile.mkdtemp(prefix="segio_"))
        try:
            write_segment(segment, directory)
            loaded = load_segment(directory)
            assert loaded.num_docs == segment.num_docs
            original_rows = sorted(map(repr, segment.iter_records()))
            loaded_rows = sorted(map(repr, loaded.iter_records()))
            assert original_rows == loaded_rows
            assert loaded.metadata.sorted_column == sorted_column
        finally:
            shutil.rmtree(directory, ignore_errors=True)
