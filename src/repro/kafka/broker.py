"""A simulated Kafka cluster (topics, partitions, offsets, consumers).

Pinot's realtime ingestion reads events directly from Kafka (§3).
The segment-completion protocol (§3.3.6) depends on precise Kafka
semantics: independent consumers reading the same partition from the
same start offset see the exact same records in the same order, and
offsets are dense and monotonically increasing. This simulation
reproduces those semantics in memory, plus the retention windowing the
paper mentions ("Kafka retains data only for a certain period of time").

A partition stores records as parallel key and value lists and reads
hand out :class:`RecordBatch` slices of them, so nothing is built per
record between a producer and the consuming segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Iterable, Iterator

from repro.errors import IngestionError
from repro.kafka.partitioner import kafka_partition, key_bytes


@dataclass(frozen=True)
class KafkaMessage:
    """One record on a partition, as a :class:`RecordBatch` yields it."""

    offset: int
    key: Any
    value: dict[str, Any]


class RecordBatch:
    """Consecutive records of one partition: ``keys[i]`` and
    ``values[i]`` sit at offset ``base_offset + i``.

    A consumer hands ``values`` to the segment whole; iterating,
    indexing or comparing the batch yields :class:`KafkaMessage` views
    for a caller that wants records one by one.
    """

    __slots__ = ("base_offset", "keys", "values")

    def __init__(self, base_offset: int, keys: list[Any],
                 values: list[dict[str, Any]]):
        self.base_offset = base_offset
        self.keys = keys
        self.values = values

    @property
    def end_offset(self) -> int:
        """The offset after the batch's last record."""
        return self.base_offset + len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> KafkaMessage:
        offsets = range(self.base_offset, self.end_offset)
        return KafkaMessage(offsets[index], self.keys[index],
                            self.values[index])

    def __iter__(self) -> Iterator[KafkaMessage]:
        return map(KafkaMessage, count(self.base_offset), self.keys,
                   self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RecordBatch, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"RecordBatch(base_offset={self.base_offset}, "
                f"records={len(self.values)})")


class _Partition:
    """One partition's retained records as two parallel lists; the
    record at offset ``o`` is at index ``o - start_offset``."""

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[dict[str, Any]] = []
        self.start_offset = 0  # first retained offset

    @property
    def end_offset(self) -> int:
        return self.start_offset + len(self.values)

    def extend(self, keys: list[Any], values: list[dict[str, Any]]) -> int:
        """Append records; returns the offset of the first."""
        offset = self.end_offset
        self.keys += keys
        self.values += values
        return offset

    def fetch(self, offset: int, max_records: int) -> RecordBatch:
        if offset < self.start_offset:
            raise IngestionError(
                f"offset {offset} below retention start "
                f"{self.start_offset} (data expired)"
            )
        index = offset - self.start_offset
        window = slice(index, index + max_records)
        return RecordBatch(offset, self.keys[window], self.values[window])

    def truncate_before(self, offset: int) -> None:
        """Drop records below ``offset`` (retention enforcement)."""
        if offset <= self.start_offset:
            return
        drop = min(offset - self.start_offset, len(self.values))
        del self.keys[:drop]
        del self.values[:drop]
        self.start_offset += drop


class SimKafka:
    """In-memory Kafka broker holding any number of topics."""

    def __init__(self) -> None:
        self._topics: dict[str, list[_Partition]] = {}

    def create_topic(self, topic: str, num_partitions: int) -> None:
        if topic in self._topics:
            raise IngestionError(f"topic {topic!r} already exists")
        if num_partitions < 1:
            raise IngestionError("topics need at least one partition")
        self._topics[topic] = [_Partition() for _ in range(num_partitions)]

    def has_topic(self, topic: str) -> bool:
        return topic in self._topics

    def num_partitions(self, topic: str) -> int:
        return len(self._partitions(topic))

    def _partitions(self, topic: str) -> list[_Partition]:
        try:
            return self._topics[topic]
        except KeyError:
            raise IngestionError(f"no such topic: {topic!r}") from None

    # -- producing ---------------------------------------------------------

    def produce(self, topic: str, value: dict[str, Any],
                key: Any = None) -> tuple[int, int]:
        """Append one record; returns (partition, offset).

        Keyed records use the Kafka default partitioner; unkeyed records
        round-robin by total record count.
        """
        partitions = self._partitions(topic)
        if key is not None:
            partition_id = kafka_partition(key, len(partitions))
        else:
            total = sum(p.end_offset for p in partitions)
            partition_id = total % len(partitions)
        offset = partitions[partition_id].extend([key], [value])
        return partition_id, offset

    def produce_all(self, topic: str, values: Iterable[dict[str, Any]],
                    key_column: str | None = None) -> int:
        """Produce many records, keying by ``key_column`` if given.

        Every record lands where :meth:`produce` would put it, and each
        distinct key is hashed once per call (by its bytes: ``1``,
        ``1.0`` and ``True`` are one dict key but three partition keys).
        Records are routed first and each partition is then extended
        once.
        """
        partitions = self._partitions(topic)
        width = len(partitions)
        first = sum(p.end_offset for p in partitions)
        values = list(values)
        keys = ([value[key_column] for value in values]
                if key_column is not None else [None] * len(values))
        routed_keys: list[list[Any]] = [[] for _ in partitions]
        routed_values: list[list[dict[str, Any]]] = [[] for _ in partitions]
        placed: dict[bytes, int] = {}
        for total, key, value in zip(count(first), keys, values):
            if key is None:
                partition_id = total % width
            else:
                encoded = key_bytes(key)
                partition_id = placed.get(encoded)
                if partition_id is None:
                    partition_id = placed[encoded] = kafka_partition(
                        encoded, width)
            routed_keys[partition_id].append(key)
            routed_values[partition_id].append(value)
        for partition, routed, keyed in zip(partitions, routed_values,
                                            routed_keys):
            partition.extend(keyed, routed)
        return len(values)

    # -- consuming -----------------------------------------------------------

    def fetch(self, topic: str, partition: int, offset: int,
              max_records: int = 500) -> RecordBatch:
        """Read up to ``max_records`` from ``offset`` (inclusive)."""
        return self._partitions(topic)[partition].fetch(offset, max_records)

    def latest_offset(self, topic: str, partition: int) -> int:
        """The next offset to be written (== high watermark)."""
        return self._partitions(topic)[partition].end_offset

    def earliest_offset(self, topic: str, partition: int) -> int:
        return self._partitions(topic)[partition].start_offset

    # -- retention ---------------------------------------------------------------

    def expire_before(self, topic: str, partition: int, offset: int) -> None:
        """Simulate retention: drop records below ``offset``."""
        self._partitions(topic)[partition].truncate_before(offset)


class KafkaConsumer:
    """A simple single-partition consumer with a local position.

    Matches how a Pinot consuming segment reads: created at a given
    start offset (§3.3.1 CONSUMING transition), polled in batches, and
    able to report its current offset for the completion protocol.
    """

    def __init__(self, kafka: SimKafka, topic: str, partition: int,
                 start_offset: int):
        self._kafka = kafka
        self.topic = topic
        self.partition = partition
        self.position = start_offset

    def poll(self, max_records: int = 500) -> RecordBatch:
        batch = self._kafka.fetch(self.topic, self.partition,
                                  self.position, max_records)
        self.position = batch.end_offset
        return batch

    def poll_until(self, end_offset: int,
                   max_records: int = 500) -> RecordBatch:
        """Consume up to (but not beyond) ``end_offset`` — the CATCHUP
        instruction of the completion protocol (§3.3.6)."""
        budget = max(0, min(max_records, end_offset - self.position))
        return self.poll(budget)

    @property
    def lag(self) -> int:
        return self._kafka.latest_offset(self.topic,
                                         self.partition) - self.position
