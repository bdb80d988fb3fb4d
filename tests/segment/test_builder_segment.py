"""Tests for the segment builder and the ImmutableSegment API."""

import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import SegmentError
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.forward import SortedForwardIndex


@pytest.fixture
def schema():
    return Schema(
        "events",
        [
            dimension("country"),
            dimension("tags", DataType.STRING, multi_value=True),
            metric("clicks", DataType.LONG),
            time_column("day", DataType.INT),
        ],
    )


RECORDS = [
    {"country": "us", "tags": ["a", "b"], "clicks": 3, "day": 17001},
    {"country": "ca", "tags": ["b"], "clicks": 1, "day": 17002},
    {"country": "us", "tags": [], "clicks": 2, "day": 17000},
    {"country": "mx", "tags": ["c"], "clicks": 5, "day": 17001},
]


def build(schema, config=None, records=RECORDS):
    builder = SegmentBuilder("seg1", "events", schema,
                             config or SegmentConfig())
    builder.add_all(records)
    return builder.build()


class TestBuild:
    def test_empty_build_rejected(self, schema):
        with pytest.raises(SegmentError):
            SegmentBuilder("s", "t", schema).build()

    def test_basic_metadata(self, schema):
        segment = build(schema)
        assert segment.num_docs == 4
        assert segment.metadata.min_time == 17000
        assert segment.metadata.max_time == 17002
        assert segment.metadata.time_column == "day"
        assert set(segment.column_names) == {"country", "tags", "clicks",
                                             "day"}

    def test_column_statistics(self, schema):
        segment = build(schema)
        meta = segment.metadata.column("country")
        assert meta.cardinality == 3
        assert meta.min_value == "ca"
        assert meta.max_value == "us"
        assert meta.total_docs == 4

    def test_sorted_column_reorders_physically(self, schema):
        segment = build(schema, SegmentConfig(sorted_column="country"))
        column = segment.column("country")
        assert isinstance(column.forward, SortedForwardIndex)
        values = [segment.record(i)["country"] for i in range(4)]
        assert values == sorted(values)
        assert segment.metadata.sorted_column == "country"
        assert segment.metadata.column("country").is_sorted

    def test_sorted_multi_value_rejected(self, schema):
        with pytest.raises(SegmentError):
            SegmentBuilder("s", "t", schema,
                           SegmentConfig(sorted_column="tags"))

    def test_unknown_inverted_column_rejected(self, schema):
        from repro.errors import PinotError

        with pytest.raises(PinotError):
            SegmentBuilder("s", "t", schema,
                           SegmentConfig(inverted_columns=("missing",)))

    def test_inverted_built_on_request(self, schema):
        segment = build(schema, SegmentConfig(inverted_columns=("country",)))
        assert segment.column("country").inverted is not None
        assert segment.metadata.column("country").has_inverted_index
        assert segment.column("clicks").inverted is None

    def test_multi_value_stats(self, schema):
        segment = build(schema)
        meta = segment.metadata.column("tags")
        assert meta.multi_value
        assert meta.total_entries == 4  # a,b + b + (none) + c
        assert meta.cardinality == 3

    def test_partition_metadata(self, schema):
        from repro.kafka.partitioner import kafka_partition

        config = SegmentConfig(partition_column="country", num_partitions=4)
        us_only = [r for r in RECORDS if r["country"] == "us"]
        segment = build(schema, config, us_only)
        assert segment.metadata.partition_column == "country"
        assert segment.metadata.partition_id == kafka_partition("us", 4)

    def test_mixed_partition_rejected(self, schema):
        config = SegmentConfig(partition_column="country", num_partitions=4)
        with pytest.raises(SegmentError, match="spans partitions"):
            build(schema, config)

    def test_partition_config_must_be_complete(self):
        with pytest.raises(SegmentError):
            SegmentConfig(partition_column="c")


class TestSegmentApi:
    def test_record_roundtrip(self, schema):
        segment = build(schema)
        assert segment.record(0) == {
            "country": "us", "tags": ["a", "b"], "clicks": 3, "day": 17001
        }
        assert len(list(segment.iter_records())) == 4

    def test_unknown_column_raises(self, schema):
        segment = build(schema)
        with pytest.raises(SegmentError):
            segment.column("nope")

    def test_values_decoded(self, schema):
        segment = build(schema)
        assert segment.column("clicks").values().tolist() == [3, 1, 2, 5]

    def test_multi_value_dict_ids_rejected(self, schema):
        segment = build(schema)
        with pytest.raises(SegmentError):
            segment.column("tags").dict_ids()

    def test_ensure_inverted_on_demand(self, schema):
        segment = build(schema)
        assert segment.column("country").inverted is None
        inverted = segment.ensure_inverted_index("country")
        assert inverted is segment.column("country").inverted
        assert segment.metadata.column("country").has_inverted_index

    def test_time_range(self, schema):
        assert build(schema).time_range() == (17000, 17002)

    def test_column_count_mismatch_rejected(self, schema):
        segment = build(schema)
        other = build(schema, records=RECORDS[:2])
        with pytest.raises(SegmentError):
            segment.add_virtual_column(other.column("country"))


# -- pinned build bytes --------------------------------------------------------
#
# The SHA-256 of what ``segment/io`` writes for one seeded record set
# under each config shape, computed at d604113 (the record-wise
# builder): whatever builds segments must keep producing these bytes.
# Re-pinned once when ``SegmentMetadata.crc`` (never set, always 0) was
# deleted: ``index.bin`` is unchanged, and ``metadata.json`` differs
# only by the dropped ``"crc": 0`` entry.


def _pinned_schema():
    return Schema(
        "pinned",
        [
            dimension("country"),
            dimension("member", DataType.LONG),
            dimension("tags", DataType.STRING, multi_value=True),
            dimension("codes", DataType.INT, multi_value=True),
            metric("clicks", DataType.LONG),
            metric("spend", DataType.DOUBLE),
            time_column("day", DataType.INT),
        ],
    )


def _pinned_records():
    import random

    rng = random.Random(20180610)
    countries = ["us", "ca", "mx", "br", "de", "in", "jp", "U", "", "é"]
    tags = ["a", "b", "c", "dd", "eee"]
    records = []
    for i in range(400):
        record = {
            "country": rng.choice(countries),
            "member": rng.randrange(0, 60) * 8,
            "tags": rng.sample(tags, rng.randrange(0, 4)),
            "codes": [rng.randrange(-5, 5)
                      for __ in range(rng.randrange(0, 3))],
            "clicks": rng.randrange(0, 1000),
            "spend": rng.randrange(-400, 400) / 8.0,
            "day": 17000 + rng.randrange(0, 45),
        }
        if i % 37 == 0:
            del record["spend"]  # filled with the column default
        if i % 53 == 0:
            del record["tags"]
        records.append(record)
    return records


def _pinned_configs():
    from repro.startree.builder import StarTreeConfig

    return {
        "plain": SegmentConfig(),
        "sorted": SegmentConfig(sorted_column="member"),
        "sorted_string": SegmentConfig(sorted_column="country"),
        "inverted": SegmentConfig(
            inverted_columns=("country", "member", "tags")),
        "bloom": SegmentConfig(bloom_columns=("member", "country", "codes")),
        "partitioned": SegmentConfig(partition_column="country",
                                     num_partitions=4),
        "star_tree": SegmentConfig(star_tree=StarTreeConfig(
            dimensions=("country", "day"), max_leaf_records=10)),
        "timestamp_index": SegmentConfig(timestamp_index=(7, 30)),
        "everything": SegmentConfig(
            sorted_column="member",
            inverted_columns=("member", "country", "codes"),
            bloom_columns=("country",),
            star_tree=StarTreeConfig(max_leaf_records=25),
            timestamp_index=(1, 10),
        ),
    }


PINNED_SHA256 = {
    "bloom":
        "a03b9ddb44d545f8a212e2879bc81d08060f4335633d52fcab13742e5e4e7b0f",
    "everything":
        "dd56687a0669125de946a376ffe9bbf6a92550f1d6cd80f2003dd256bf6f11b8",
    "inverted":
        "90358f882c0201f32b8212781b03ea9e59c442f1395a028554f9de9c176bd289",
    "partitioned":
        "de732ddd49aa3860ef2c83f91b3df005be74624e22caa5888e404ab91eabf1f8",
    "plain":
        "c31c8e635a223bfe4c7deddde09103c93b6d3db726d3cae4c7436939c574889c",
    "sorted":
        "118600acac197e5cb4c7f60f4c2455a7a6d49ec0d949db011c5f894cf15fea2d",
    "sorted_string":
        "c7bb0eca4f54d85dd0e9417cb1bd4ee33a99590e52b0a4f1af66b8fbfbff3331",
    "star_tree":
        "906aa3d716e6288fd17adff52192843bc40e933e58a86bd39d72ae47747fea92",
    "timestamp_index":
        "a535c4f5f63a721cb035f91519b5e2bafb6dd622e5ebc0e89bd492bb6f1e721f",
}


def _segment_sha256(segment, directory):
    import hashlib

    from repro.segment.io import INDEX_FILE, METADATA_FILE, write_segment

    path = write_segment(segment, directory)
    digest = hashlib.sha256()
    for name in (METADATA_FILE, INDEX_FILE):
        digest.update((path / name).read_bytes())
    return digest.hexdigest()


class TestPinnedBuildBytes:
    @pytest.mark.parametrize("shape", sorted(_pinned_configs()))
    def test_bytes_are_the_record_wise_builders(self, shape, tmp_path):
        config = _pinned_configs()[shape]
        records = _pinned_records()
        if config.partition_column is not None:
            records = [r for r in records if r["country"] == "us"]
        segment = build(_pinned_schema(), config, records)
        assert _segment_sha256(segment, tmp_path) == PINNED_SHA256[shape]

    @pytest.mark.parametrize("shape", sorted(_pinned_configs()))
    def test_a_sealed_consuming_segment_has_the_same_bytes(self, shape,
                                                           tmp_path):
        """Rows that arrived one by one, in batches and around queries
        seal into the segment a push of the same rows builds."""
        from repro.segment.mutable import MutableSegment

        config = _pinned_configs()[shape]
        records = _pinned_records()
        if config.partition_column is not None:
            records = [r for r in records if r["country"] == "us"]
        mutable = MutableSegment("seg1", "events", _pinned_schema(), config)
        for record in records[:3]:
            mutable.index(record)
        mutable.snapshot()
        mutable.index_all(records[3:20])
        mutable.snapshot()
        mutable.index_all(records[20:])
        assert (_segment_sha256(mutable.seal(), tmp_path)
                == PINNED_SHA256[shape])

    @pytest.mark.parametrize("shape", sorted(_pinned_configs()))
    def test_row_path_and_coerced_input_give_the_same_bytes(self, shape,
                                                            tmp_path):
        """Records added one at a time (the row path), and records whose
        cells need coercing (numeric strings, numpy scalars, ints in a
        DOUBLE column, so no column takes the one-probe path), build
        the pinned bytes."""
        import numpy as np

        config = _pinned_configs()[shape]
        records = _pinned_records()
        if config.partition_column is not None:
            records = [r for r in records if r["country"] == "us"]
        one_by_one = SegmentBuilder("seg1", "events", _pinned_schema(),
                                    config)
        for record in records:
            one_by_one.add(record)
        assert (_segment_sha256(one_by_one.build(), tmp_path / "rows")
                == PINNED_SHA256[shape])

        def loosen(record):
            out = dict(record)
            out["member"] = str(record["member"])
            out["clicks"] = np.int64(record["clicks"])
            out["day"] = np.int32(record["day"])
            out["codes"] = [str(code) for code in record["codes"]]
            spend = record.get("spend")
            if spend is not None and spend.is_integer():
                out["spend"] = int(spend)
            return out

        coerced = build(_pinned_schema(), config, [loosen(r) for r in records])
        assert (_segment_sha256(coerced, tmp_path / "coerced")
                == PINNED_SHA256[shape])
