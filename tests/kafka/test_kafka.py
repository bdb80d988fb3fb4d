"""Tests for the simulated Kafka broker and the murmur2 partitioner."""

import pytest

from repro.errors import IngestionError
from repro.kafka.broker import KafkaConsumer, SimKafka
from repro.kafka.partitioner import kafka_partition, murmur2


def _java_murmur2(data: bytes) -> int:
    """Independent transcription of Kafka's Java murmur2 using signed
    32-bit arithmetic, as a reference for the vectorized version."""

    def i32(x):
        x &= 0xFFFFFFFF
        return x - 0x100000000 if x >= 0x80000000 else x

    def urshift(x, n):
        return (x & 0xFFFFFFFF) >> n

    length = len(data)
    seed = i32(0x9747B28C)
    m = i32(0x5BD1E995)
    h = i32(seed ^ length)
    i = 0
    while length - i >= 4:
        k = int.from_bytes(data[i:i + 4], "little", signed=True)
        k = i32(k * m)
        k = i32(k ^ urshift(k, 24))
        k = i32(k * m)
        h = i32(h * m)
        h = i32(h ^ k)
        i += 4
    rest = length - i
    if rest == 3:
        h = i32(h ^ i32((data[i + 2] & 0xFF) << 16))
    if rest >= 2:
        h = i32(h ^ ((data[i + 1] & 0xFF) << 8))
    if rest >= 1:
        h = i32(h ^ (data[i] & 0xFF))
        h = i32(h * m)
    h = i32(h ^ urshift(h, 13))
    h = i32(h * m)
    h = i32(h ^ urshift(h, 15))
    return h & 0xFFFFFFFF


class TestPartitioner:
    def test_murmur2_matches_java_reference(self):
        cases = [b"", b"a", b"ab", b"abc", b"abcd", b"hello world",
                 b"user-12345", bytes(range(256))]
        for data in cases:
            assert murmur2(data) == _java_murmur2(data), data

    def test_partition_is_stable(self):
        assert kafka_partition("user-42", 8) == kafka_partition("user-42", 8)

    def test_partition_in_range(self):
        for key in range(200):
            assert 0 <= kafka_partition(key, 7) < 7

    def test_partition_spreads_keys(self):
        partitions = {kafka_partition(f"k{i}", 8) for i in range(100)}
        assert len(partitions) == 8

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            kafka_partition("k", 0)


@pytest.fixture
def kafka():
    broker = SimKafka()
    broker.create_topic("events", 4)
    return broker


class TestTopics:
    def test_duplicate_topic_rejected(self, kafka):
        with pytest.raises(IngestionError):
            kafka.create_topic("events", 2)

    def test_missing_topic_rejected(self, kafka):
        with pytest.raises(IngestionError):
            kafka.fetch("nope", 0, 0)

    def test_num_partitions(self, kafka):
        assert kafka.num_partitions("events") == 4


class TestProduceConsume:
    def test_keyed_produce_uses_partitioner(self, kafka):
        partition, offset = kafka.produce("events", {"v": 1}, key="k1")
        assert partition == kafka_partition("k1", 4)
        assert offset == 0

    def test_offsets_dense_per_partition(self, kafka):
        for i in range(10):
            kafka.produce("events", {"v": i}, key="samekey")
        partition = kafka_partition("samekey", 4)
        messages = kafka.fetch("events", partition, 0, max_records=100)
        assert [m.offset for m in messages] == list(range(10))
        assert [m.value["v"] for m in messages] == list(range(10))

    def test_unkeyed_round_robin(self, kafka):
        for i in range(8):
            kafka.produce("events", {"v": i})
        counts = [kafka.latest_offset("events", p) for p in range(4)]
        assert sum(counts) == 8

    def test_fetch_respects_max_records(self, kafka):
        for i in range(10):
            kafka.produce("events", {"v": i}, key="k")
        partition = kafka_partition("k", 4)
        assert len(kafka.fetch("events", partition, 0, max_records=3)) == 3

    def test_identical_replay(self, kafka):
        """Two independent reads of the same offset range see the same
        records — the property the completion protocol relies on."""
        for i in range(20):
            kafka.produce("events", {"v": i}, key="k")
        partition = kafka_partition("k", 4)
        read1 = kafka.fetch("events", partition, 5, 10)
        read2 = kafka.fetch("events", partition, 5, 10)
        assert read1 == read2


class TestProduceAll:
    KEYS = [1, 1.0, True, "1", "1.0", "True", None, 0.0, -0.0, b"1", "k",
            None, 2**70, "é", 1, True, None, -0.0]

    @staticmethod
    def contents(kafka):
        return [[(m.offset, type(m.key), m.key, m.value)
                 for m in kafka.fetch("events", p, kafka.earliest_offset(
                     "events", p), max_records=1000)]
                for p in range(kafka.num_partitions("events"))]

    def test_batch_lands_where_a_produce_loop_does(self):
        """Keys equal as dict keys (``1``, ``1.0``, ``True``; ``0.0``,
        ``-0.0``) hash by their bytes, so each keeps its own partition;
        unkeyed records round-robin over the running total."""
        batch, loop = SimKafka(), SimKafka()
        for kafka in (batch, loop):
            kafka.create_topic("events", 5)
            for i in range(7):  # a head start, part of it expired
                kafka.produce("events", {"pre": i}, key=f"p{i}")
            kafka.expire_before("events", 0, 1)
        values = [{"key": key, "i": i}
                  for i, key in enumerate(self.KEYS * 3)]
        assert batch.produce_all("events", values, "key") == len(values)
        for value in values:
            loop.produce("events", value, value["key"])
        assert self.contents(batch) == self.contents(loop)
        unkeyed = [{"i": i} for i in range(9)]
        assert batch.produce_all("events", unkeyed) == 9
        for value in unkeyed:
            loop.produce("events", value)
        assert self.contents(batch) == self.contents(loop)

    def test_each_distinct_key_is_hashed_once(self, kafka, monkeypatch):
        from repro.kafka import partitioner

        hashed = []
        murmur2 = partitioner.murmur2
        monkeypatch.setattr(partitioner, "murmur2",
                            lambda data: hashed.append(data) or murmur2(data))
        kafka.produce_all("events", [{"key": key} for key in self.KEYS * 4],
                          "key")
        distinct = {partitioner.key_bytes(key) for key in self.KEYS
                    if key is not None}
        assert sorted(hashed) == sorted(distinct)


class TestRetention:
    def test_expired_offsets_unreadable(self, kafka):
        for i in range(10):
            kafka.produce("events", {"v": i}, key="k")
        partition = kafka_partition("k", 4)
        kafka.expire_before("events", partition, 5)
        assert kafka.earliest_offset("events", partition) == 5
        with pytest.raises(IngestionError, match="retention"):
            kafka.fetch("events", partition, 2)
        assert kafka.fetch("events", partition, 5)[0].value == {"v": 5}


class TestConsumer:
    def test_poll_advances_position(self, kafka):
        for i in range(10):
            kafka.produce("events", {"v": i}, key="k")
        partition = kafka_partition("k", 4)
        consumer = KafkaConsumer(kafka, "events", partition, 0)
        first = consumer.poll(max_records=4)
        assert len(first) == 4
        assert consumer.position == 4
        assert consumer.lag == 6

    def test_poll_until_stops_at_target(self, kafka):
        for i in range(10):
            kafka.produce("events", {"v": i}, key="k")
        partition = kafka_partition("k", 4)
        consumer = KafkaConsumer(kafka, "events", partition, 0)
        consumer.poll_until(end_offset=7, max_records=100)
        assert consumer.position == 7
        assert consumer.poll_until(end_offset=7) == []
