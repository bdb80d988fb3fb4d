"""Tests for mutable (consuming) realtime segments."""

import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric
from repro.errors import SegmentError
from repro.segment.builder import SegmentConfig
from repro.segment.mutable import MutableSegment


@pytest.fixture
def schema():
    return Schema("rt", [dimension("user"), metric("n", DataType.LONG)])


@pytest.fixture
def mutable(schema):
    return MutableSegment("rt__0__0", "rt", schema)


class TestIngestion:
    def test_index_and_count(self, mutable):
        mutable.index({"user": "a", "n": 1})
        mutable.index({"user": "b", "n": 2})
        assert mutable.num_docs == 2

    def test_records_are_normalized(self, mutable):
        mutable.index({"user": "a"})
        assert mutable.records() == [{"user": "a", "n": 0}]

    def test_bad_record_rejected(self, mutable):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            mutable.index({"user": "a", "bogus": 1})

    def test_batch_keeps_the_records_ahead_of_a_bad_one(self, mutable):
        from repro.errors import SchemaError

        batch = [{"user": "a", "n": 1}, {"user": "b", "n": "x"},
                 {"user": "c", "bogus": 1}]
        with pytest.raises(SchemaError, match="cannot coerce 'x' to LONG"):
            mutable.index_all(batch)
        assert mutable.records() == [{"user": "a", "n": 1}]
        assert mutable.snapshot().num_docs == 1

    def test_batches_and_single_records_are_the_same_rows(self, schema):
        rows = [{"user": "ab"[i % 2], "n": i % 3} for i in range(10)]
        one_by_one = MutableSegment("rt__0__0", "rt", schema)
        for row in rows:
            one_by_one.index(row)
        batched = MutableSegment("rt__0__0", "rt", schema)
        batched.index_all(rows[:4])
        batched.index_all(iter(rows[4:]))
        assert one_by_one.records() == batched.records() == rows
        assert (list(one_by_one.snapshot().iter_records())
                == list(batched.snapshot().iter_records()) == rows)


    def test_nan_is_rejected_and_the_segment_stays_usable(self):
        """A NaN used to be accepted and then break every snapshot and
        the seal ("dictionary values must be strictly ascending")."""
        from repro.errors import SchemaError

        schema = Schema("rt", [dimension("d"), metric("g", DataType.DOUBLE)])
        mutable = MutableSegment("rt__0__0", "rt", schema)
        batch = [{"d": "a", "g": 1.5}, {"d": "b", "g": 2.0},
                 {"d": "c", "g": float("nan")}, {"d": "e", "g": 3.0}]
        with pytest.raises(SchemaError, match="nan"):
            mutable.index_all(batch)
        assert mutable.records() == batch[:2]
        with pytest.raises(SchemaError):
            mutable.index({"d": "c", "g": float("nan")})
        mutable.index_all(batch[3:])
        assert mutable.snapshot().num_docs == 3
        sealed = mutable.seal()
        assert sealed.column("g").metadata.max_value == 3.0


class TestSnapshot:
    def test_empty_snapshot_is_none(self, mutable):
        assert mutable.snapshot() is None

    def test_snapshot_reflects_rows(self, mutable):
        mutable.index({"user": "a", "n": 5})
        snapshot = mutable.snapshot()
        assert snapshot.num_docs == 1
        assert snapshot.record(0) == {"user": "a", "n": 5}

    def test_snapshot_cached_until_new_rows(self, mutable):
        mutable.index({"user": "a", "n": 1})
        first = mutable.snapshot()
        assert mutable.snapshot() is first
        mutable.index({"user": "b", "n": 2})
        second = mutable.snapshot()
        assert second is not first
        assert second.num_docs == 2

    def test_invalidate_snapshot(self, mutable):
        mutable.index({"user": "a", "n": 1})
        first = mutable.snapshot()
        mutable.invalidate_snapshot()
        assert mutable.snapshot() is not first

    def test_snapshot_is_a_value(self, mutable):
        """Later rows — new values that sort ahead of the old ones, so
        every dictionary id moves — never reach a view handed out."""
        mutable.index_all([{"user": "m", "n": 5}, {"user": "z", "n": 7}])
        first = mutable.snapshot()
        ids = first.column("user").dict_ids().copy()
        mutable.index_all([{"user": "a", "n": 1}, {"user": "m", "n": 6}])
        second = mutable.snapshot()
        assert first.num_docs == 2
        assert list(first.iter_records()) == [{"user": "m", "n": 5},
                                              {"user": "z", "n": 7}]
        assert first.column("user").dict_ids().tolist() == ids.tolist()
        assert first.column("user").dictionary.to_list() == ["m", "z"]
        assert second.column("user").dictionary.to_list() == ["a", "m", "z"]
        assert second.column("user").dict_ids().tolist() == [1, 2, 0, 1]
        with pytest.raises(ValueError):  # and no reader can write to one
            first.column("user").dict_ids()[0] = 1

    def test_snapshot_skips_what_waits_for_the_seal(self, schema):
        mutable = MutableSegment(
            "rt__0__0", "rt", schema,
            SegmentConfig(sorted_column="user", inverted_columns=("user",),
                          bloom_columns=("user",), timestamp_index=(1,)),
        )
        mutable.index_all([{"user": "z", "n": 1}, {"user": "a", "n": 2}])
        view = mutable.snapshot()
        assert view.record(0)["user"] == "z"  # arrival order
        assert not view.column("user").is_sorted
        assert view.metadata.sorted_column is None
        assert view.column("user").inverted is not None
        assert view.metadata.column("user").bloom is None
        assert view.time_index is None and view.star_tree is None

    def test_column_added_mid_consumption_reads_its_default(self, mutable):
        """What ServerInstance.apply_new_column does (§5.2)."""
        mutable.index({"user": "a", "n": 1})
        before = mutable.snapshot()
        mutable.schema = mutable.schema.with_column(
            dimension("city", DataType.STRING))
        mutable.invalidate_snapshot()
        mutable.index({"user": "b", "n": 2, "city": "oslo"})
        after = mutable.snapshot()
        assert not before.has_column("city")
        assert list(after.iter_records()) == mutable.records() == [
            {"user": "a", "n": 1, "city": "null"},
            {"user": "b", "n": 2, "city": "oslo"},
        ]
        assert mutable.seal().column("city").dictionary.to_list() == [
            "null", "oslo"]


class TestSeal:
    def test_seal_empty_rejected(self, mutable):
        with pytest.raises(SegmentError):
            mutable.seal()

    def test_seal_applies_full_config(self, schema):
        mutable = MutableSegment(
            "rt__0__0", "rt", schema,
            SegmentConfig(sorted_column="user"),
        )
        mutable.index({"user": "z", "n": 1})
        mutable.index({"user": "a", "n": 2})
        sealed = mutable.seal()
        assert sealed.column("user").is_sorted
        assert sealed.record(0)["user"] == "a"

    def test_failed_seal_leaves_the_segment_consuming(self, schema):
        """Rows of two partitions cannot seal; the segment must not end
        up sealed with no sealed form."""
        from repro.kafka.partitioner import kafka_partition

        users = ["u0"]
        users.append(next(
            f"u{i}" for i in range(1, 99)
            if kafka_partition(f"u{i}", 4) != kafka_partition("u0", 4)))
        mutable = MutableSegment(
            "rt__0__0", "rt", schema,
            SegmentConfig(partition_column="user", num_partitions=4),
        )
        mutable.index_all([{"user": user, "n": 1} for user in users])
        with pytest.raises(SegmentError, match="spans partitions"):
            mutable.seal()
        assert not mutable.is_sealed
        mutable.index({"user": "u0", "n": 2})
        assert mutable.num_docs == 3
        mutable.discard_and_replace([{"user": "u0", "n": 1}])
        assert mutable.seal().metadata.partition_id == kafka_partition(
            "u0", 4)
        assert mutable.is_sealed

    def test_sealed_segment_rejects_more_rows(self, mutable):
        mutable.index({"user": "a", "n": 1})
        mutable.seal()
        assert mutable.is_sealed
        with pytest.raises(SegmentError):
            mutable.index({"user": "b", "n": 1})


class TestDiscard:
    def test_discard_and_replace(self, mutable):
        mutable.index({"user": "local", "n": 1})
        mutable.discard_and_replace(
            [{"user": "authoritative", "n": 9}]
        )
        assert mutable.records() == [{"user": "authoritative", "n": 9}]
        assert mutable.snapshot().num_docs == 1

    def test_discard_after_seal_rejected(self, mutable):
        mutable.index({"user": "a", "n": 1})
        mutable.seal()
        with pytest.raises(SegmentError):
            mutable.discard_and_replace([])
