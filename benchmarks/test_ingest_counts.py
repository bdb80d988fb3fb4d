"""Ingest validates by the column and hashes each Kafka key once.

The ingest shapes of the end-to-end benchmark, on a 3-server cluster:

* an offline push of 6 000 WVMP rows in 6 segments (``point_lookup``'s
  set-up, scaled down) validates every slice column by column: every
  cell is already of its column's type, so ``FieldSpec.coerce`` — the
  per-cell coercer — is called zero times. The row path calls it once
  per cell, 42 000 times here.
* one ``ingest_query_mix`` step (250 WVMP rows produced to a 2-partition
  topic keyed by ``vieweeId``, then consumed) calls ``murmur2`` once
  per distinct key in the step, not once per row; the consumed step
  is still all there, and validated without ``FieldSpec.coerce``.
  Producing and consuming it builds no ``KafkaMessage``: partitions
  hold record batches and the server indexes a poll's values whole.

Counts are exact for the data, so these are hard gates; the report
also prints them.
"""

from benchmarks._common import write_report
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.common.types import FieldSpec
from repro.kafka import partitioner
from repro.kafka.broker import KafkaMessage
from repro.workloads import wvmp

NUM_ROWS = 6_000
NUM_SEGMENTS = 6
STEP_ROWS = 250
DATA_SEED = 31


def count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_ingest_counts(monkeypatch):
    records = wvmp.generate_records(NUM_ROWS, seed=DATA_SEED)
    schema = wvmp.schema()
    report = []

    coerced = count_calls(monkeypatch, FieldSpec, "coerce")
    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline("wvmp", schema))
    per_segment = NUM_ROWS // NUM_SEGMENTS
    for first in range(0, NUM_ROWS, per_segment):
        cluster.upload_records("wvmp", records[first:first + per_segment],
                               rows_per_segment=per_segment)
    assert cluster.execute("SELECT count(*) FROM wvmp").rows == [(NUM_ROWS,)]
    report.append(f"offline push of {NUM_ROWS} rows: {len(coerced)} "
                  f"FieldSpec.coerce calls (row path: "
                  f"{NUM_ROWS * len(schema)})")
    pushed = len(coerced)

    hashed = count_calls(monkeypatch, partitioner, "murmur2")
    cluster = PinotCluster(num_servers=3)
    cluster.create_kafka_topic("profile-views", 2)
    cluster.create_table(TableConfig.realtime(
        "wvmp", schema,
        StreamConfig("profile-views", records_per_poll=STEP_ROWS)))
    step = records[:STEP_ROWS]
    keys = len({record["vieweeId"] for record in step})
    del coerced[:]
    messages = count_calls(monkeypatch, KafkaMessage, "__init__")
    cluster.ingest("profile-views", step, key_column="vieweeId")
    produced = len(hashed)
    cluster.process_realtime()
    built = len(messages)
    assert cluster.execute("SELECT count(*) FROM wvmp").rows == [(STEP_ROWS,)]
    report.append(f"produce_all of a {STEP_ROWS}-row step with {keys} "
                  f"distinct keys: {produced} murmur2 calls; consuming it: "
                  f"{len(coerced)} FieldSpec.coerce calls, {built} "
                  f"KafkaMessage objects")
    write_report("ingest_counts", "\n".join(report))
    assert pushed == 0
    assert produced == keys
    assert not coerced
    assert built == 0
