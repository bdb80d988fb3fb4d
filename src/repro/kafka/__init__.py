"""Simulated Kafka: topics, partitions, offsets, consumers, and the
Kafka-compatible murmur2 partition function."""

from repro.kafka.broker import (
    KafkaConsumer,
    KafkaMessage,
    RecordBatch,
    SimKafka,
)
from repro.kafka.partitioner import kafka_partition, murmur2

__all__ = [
    "KafkaConsumer",
    "KafkaMessage",
    "RecordBatch",
    "SimKafka",
    "kafka_partition",
    "murmur2",
]
