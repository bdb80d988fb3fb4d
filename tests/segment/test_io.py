"""Tests for the on-disk segment format."""

import json

import numpy as np
import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import SegmentFormatError
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.io import (
    INDEX_FILE,
    METADATA_FILE,
    append_inverted_index,
    load_segment,
    write_segment,
)
from repro.startree.builder import StarTreeConfig


@pytest.fixture
def schema():
    return Schema(
        "events",
        [
            dimension("country"),
            dimension("score", DataType.DOUBLE),
            dimension("tags", DataType.STRING, multi_value=True),
            metric("clicks", DataType.LONG),
            time_column("day", DataType.INT),
        ],
    )


@pytest.fixture
def segment(schema):
    import random

    rng = random.Random(5)
    builder = SegmentBuilder(
        "seg-io", "events", schema,
        SegmentConfig(sorted_column="country",
                      inverted_columns=("day",),
                      star_tree=StarTreeConfig(
                          dimensions=("country", "day"),
                          max_leaf_records=4)),
    )
    for i in range(200):
        builder.add({
            "country": rng.choice(["us", "ca", "mx"]),
            "score": round(rng.random(), 4),
            "tags": rng.sample(["x", "y", "z"], k=rng.randint(0, 2)),
            "clicks": rng.randint(0, 9),
            "day": 17000 + i % 5,
        })
    return builder.build()


class TestRoundTrip:
    def test_full_roundtrip(self, tmp_path, segment):
        write_segment(segment, tmp_path / "seg")
        loaded = load_segment(tmp_path / "seg")
        assert loaded.num_docs == segment.num_docs
        assert loaded.schema == segment.schema
        assert loaded.metadata.sorted_column == "country"
        for name in segment.column_names:
            original, copy = segment.column(name), loaded.column(name)
            assert copy.dictionary.to_list() == original.dictionary.to_list()
        for doc_id in (0, 57, 199):
            assert loaded.record(doc_id) == segment.record(doc_id)

    def test_inverted_index_preserved(self, tmp_path, segment):
        write_segment(segment, tmp_path / "seg")
        loaded = load_segment(tmp_path / "seg")
        assert loaded.column("day").inverted is not None
        original = segment.column("day").inverted
        copy = loaded.column("day").inverted
        for dict_id in range(original.cardinality):
            assert np.array_equal(
                original.docs_for(dict_id).to_array(),
                copy.docs_for(dict_id).to_array(),
            )

    def test_star_tree_preserved(self, tmp_path, segment):
        write_segment(segment, tmp_path / "seg")
        loaded = load_segment(tmp_path / "seg")
        assert loaded.star_tree is not None
        assert loaded.star_tree.dimensions == segment.star_tree.dimensions
        assert loaded.star_tree.num_records == segment.star_tree.num_records
        assert np.array_equal(loaded.star_tree.counts,
                              segment.star_tree.counts)

    def test_two_files_only(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        names = sorted(p.name for p in path.iterdir())
        assert names == [INDEX_FILE, METADATA_FILE]


class TestAppendOnly:
    def test_append_inverted_index(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        index_size_before = (path / INDEX_FILE).stat().st_size
        append_inverted_index(path, "country")
        assert (path / INDEX_FILE).stat().st_size > index_size_before
        loaded = load_segment(path)
        assert loaded.column("country").inverted is not None

    def test_append_is_idempotent(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        append_inverted_index(path, "country")
        size = (path / INDEX_FILE).stat().st_size
        append_inverted_index(path, "country")
        assert (path / INDEX_FILE).stat().st_size == size

    def test_existing_blocks_unchanged_by_append(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        before = (path / INDEX_FILE).read_bytes()
        append_inverted_index(path, "country")
        after = (path / INDEX_FILE).read_bytes()
        assert after[:len(before)] == before  # strictly appended


class TestCorruption:
    def test_missing_metadata(self, tmp_path):
        with pytest.raises(SegmentFormatError):
            load_segment(tmp_path)

    def test_bad_version(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        doc = json.loads((path / METADATA_FILE).read_text())
        doc["version"] = 99
        (path / METADATA_FILE).write_text(json.dumps(doc))
        with pytest.raises(SegmentFormatError, match="version"):
            load_segment(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["metadata"].update(num_docs="many"),
        lambda doc: doc["metadata"].update(unknown_field=1),
        lambda doc: doc["schema"].pop("name"),
        lambda doc: doc["schema"]["fields"][0].update(dtype="STR"),
        lambda doc: doc.pop("blocks"),
    ], ids=["wrong-type", "unknown-key", "schema-without-name", "bad-enum",
            "no-blocks"])
    def test_malformed_metadata_is_a_format_error(self, tmp_path, segment,
                                                  edit):
        path = write_segment(segment, tmp_path / "seg")
        doc = json.loads((path / METADATA_FILE).read_text())
        edit(doc)
        (path / METADATA_FILE).write_text(json.dumps(doc))
        with pytest.raises(SegmentFormatError, match="malformed"):
            load_segment(path)

    def test_schema_column_without_metadata_is_a_format_error(
            self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        doc = json.loads((path / METADATA_FILE).read_text())
        doc["metadata"]["columns"].pop(doc["schema"]["fields"][-1]["name"])
        (path / METADATA_FILE).write_text(json.dumps(doc))
        with pytest.raises(SegmentFormatError,
                           match="malformed .*no metadata for columns"):
            load_segment(path)

    def test_crc_mismatch_detected(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        payload = bytearray((path / INDEX_FILE).read_bytes())
        payload[100] ^= 0xFF
        (path / INDEX_FILE).write_bytes(bytes(payload))
        with pytest.raises(SegmentFormatError, match="CRC"):
            load_segment(path)

    def test_truncated_index_detected(self, tmp_path, segment):
        path = write_segment(segment, tmp_path / "seg")
        payload = (path / INDEX_FILE).read_bytes()
        (path / INDEX_FILE).write_bytes(payload[:len(payload) // 2])
        with pytest.raises(SegmentFormatError):
            load_segment(path)
