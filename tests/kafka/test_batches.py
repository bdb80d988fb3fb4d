"""Batch storage keeps a ``produce`` loop's Kafka semantics.

A partition holds its records as parallel key / value lists and hands
out :class:`RecordBatch` slices. This property runs any interleaving of
``produce``, ``produce_all`` (keyed and unkeyed), ``expire_before``,
``fetch`` and consumer ``poll`` / ``poll_until`` against a reference
model that stores one ``(offset, key, value)`` tuple per record, and
requires the same records, offsets, retention errors and lags.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IngestionError
from repro.kafka.broker import KafkaConsumer, RecordBatch, SimKafka
from repro.kafka.partitioner import kafka_partition
from tests.kafka import test_kafka

KEYS = test_kafka.TestProduceAll.KEYS
TOPIC = "events"


class ReferenceKafka:
    """One record tuple per offset; retention as a start offset."""

    def __init__(self, num_partitions: int):
        self.records = [[] for _ in range(num_partitions)]
        self.starts = [0] * num_partitions

    def end(self, partition):
        return self.starts[partition] + len(self.records[partition])

    def produce(self, value, key):
        width = len(self.records)
        if key is None:
            partition = sum(map(self.end, range(width))) % width
        else:
            partition = kafka_partition(key, width)
        self.records[partition].append((self.end(partition), key, value))

    def expire_before(self, partition, offset):
        drop = max(0, min(offset - self.starts[partition],
                          len(self.records[partition])))
        del self.records[partition][:drop]
        self.starts[partition] += drop

    def fetch(self, partition, offset, max_records):
        if offset < self.starts[partition]:
            raise IngestionError(
                f"offset {offset} below retention start "
                f"{self.starts[partition]} (data expired)")
        return [record for record in self.records[partition]
                if record[0] >= offset][:max_records]


class ReferenceConsumer:
    def __init__(self, kafka: ReferenceKafka, partition, position):
        self.kafka = kafka
        self.partition = partition
        self.position = position

    def poll(self, max_records):
        records = self.kafka.fetch(self.partition, self.position,
                                   max_records)
        if records:
            self.position = records[-1][0] + 1
        return records

    def poll_until(self, end_offset, max_records):
        return self.poll(max(0, min(max_records,
                                    end_offset - self.position)))

    @property
    def lag(self):
        return self.kafka.end(self.partition) - self.position


def typed(records):
    return [(offset, type(key), key, value) for offset, key, value in records]


def read(batch: RecordBatch):
    """The batch as typed record tuples, read through its per-record
    view, after checking the view agrees with its lists."""
    assert isinstance(batch, RecordBatch)
    assert batch.end_offset == batch.base_offset + len(batch)
    messages = list(batch)
    assert [m.value for m in messages] == batch.values
    assert [batch[i] for i in range(len(batch))] == messages
    return [(m.offset, type(m.key), m.key, m.value) for m in messages]


keys = st.sampled_from(KEYS)
#: Offsets are drawn relative to the partition's retention start (a
#: ``poll_until`` target to the consumer's position), so that expiry,
#: fetches and consumers land near the edges.
offsets = st.integers(-3, 12)
ops = st.one_of(
    st.tuples(st.just("produce"), keys),
    st.tuples(st.just("produce_all"), st.booleans(),
              st.lists(keys, max_size=12)),
    st.tuples(st.just("expire"), st.integers(0, 7), offsets),
    st.tuples(st.just("fetch"), st.integers(0, 7), offsets,
              st.integers(0, 8)),
    st.tuples(st.just("consumer"), st.integers(0, 7), offsets),
    st.tuples(st.just("poll"), st.integers(0, 7), st.integers(0, 8)),
    st.tuples(st.just("poll_until"), st.integers(0, 7), offsets,
              st.integers(0, 8)),
)


def outcome(call):
    """What ``call()`` returned, or the IngestionError text it raised."""
    try:
        return "ok", call()
    except IngestionError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.lists(ops, max_size=40))
def test_batches_match_a_record_per_offset_model(num_partitions, steps):
    kafka = SimKafka()
    kafka.create_topic(TOPIC, num_partitions)
    model = ReferenceKafka(num_partitions)
    consumers: list[tuple[KafkaConsumer, ReferenceConsumer]] = []
    serial = 0
    for op, *args in steps:
        if op == "produce":
            key, = args
            value = {"key": key, "i": serial}
            serial += 1
            kafka.produce(TOPIC, value, key)
            model.produce(value, key)
        elif op == "produce_all":
            keyed, drawn = args
            values = [{"key": key, "i": serial + i}
                      for i, key in enumerate(drawn)]
            serial += len(values)
            assert kafka.produce_all(
                TOPIC, iter(values), "key" if keyed else None
            ) == len(values)
            for value in values:
                model.produce(value, value["key"] if keyed else None)
        elif op == "expire":
            partition, offset = args
            partition %= num_partitions
            offset += model.starts[partition]
            kafka.expire_before(TOPIC, partition, offset)
            model.expire_before(partition, offset)
        elif op == "fetch":
            partition, offset, max_records = args
            partition %= num_partitions
            offset += model.starts[partition]
            got = outcome(lambda: read(kafka.fetch(TOPIC, partition, offset,
                                                   max_records)))
            want = outcome(lambda: typed(model.fetch(partition, offset,
                                                     max_records)))
            assert got == want
        elif op == "consumer":
            partition, position = args
            partition %= num_partitions
            position = max(0, position + model.starts[partition])
            consumers.append((
                KafkaConsumer(kafka, TOPIC, partition, position),
                ReferenceConsumer(model, partition, position)))
        elif consumers:
            index, *rest = args
            consumer, reference = consumers[index % len(consumers)]
            if op == "poll_until":
                rest[0] += reference.position
            if op == "poll":
                got = outcome(lambda: read(consumer.poll(*rest)))
                want = outcome(lambda: typed(reference.poll(*rest)))
            else:
                got = outcome(lambda: read(consumer.poll_until(*rest)))
                want = outcome(lambda: typed(reference.poll_until(*rest)))
            assert got == want
            assert consumer.position == reference.position
        for partition in range(num_partitions):
            assert kafka.earliest_offset(TOPIC, partition) == \
                model.starts[partition]
            assert kafka.latest_offset(TOPIC, partition) == \
                model.end(partition)
        assert [c.lag for c, _ in consumers] == [r.lag for _, r in consumers]
