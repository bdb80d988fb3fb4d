"""Servers answer repeated texts on sealed segments from cached partials.

Two shapes of the end-to-end benchmark, on a 3-server cluster:

* ``ingest_query_mix``'s: a realtime WVMP table on a 2-partition
  topic; each step ingests 250 rows, consumes them and runs 10 texts
  of a 40-text pool round-robin, and segments seal every few steps.
  The broker's result cache cannot serve these (every ingest moves the
  consuming offsets in its key); after one pass over the pool, at
  least 60 % of the sealed-segment executions the servers are asked
  for must come from their partial caches instead.
* ``point_lookup``'s: an offline WVMP table queried with texts that
  are all different. Admission stores a text's partials only on its
  second sighting, so this run must store none: the memory guard.

Counts are exact for the data and the pool, so these are hard gates;
the report prints them.
"""

import random

from benchmarks._common import write_report
from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.workloads import wvmp
from repro.workloads.generator import COMPANIES, OCCUPATIONS, REGIONS

STEP_ROWS = 250
STEP_QUERIES = 10
POOL = 40
STEPS = 24
FLUSH_ROWS = 400
DATA_SEED = 31


def pool(rng):
    """Eight texts of each of five shapes, as ``ingest_query_mix``
    builds its pool."""
    last = wvmp.FIRST_DAY + wvmp.NUM_DAYS
    texts = ["SELECT count(*) FROM wvmp"]
    texts += [f"SELECT count(*) FROM wvmp WHERE viewerCompany = '{c}'"
              for c in rng.sample(COMPANIES, 7)]
    texts += [f"SELECT count(*) FROM wvmp WHERE viewerOccupation = '{o}'"
              for o in rng.sample(OCCUPATIONS, 8)]
    texts += [f"SELECT sum(views) FROM wvmp WHERE viewerRegion = '{r}' "
              f"GROUP BY viewerCompany TOP 10"
              for r in rng.sample(REGIONS, 8)]
    texts += [f"SELECT sum(views), distinctcount(viewerId) FROM wvmp "
              f"WHERE vieweeId = {v}" for v in rng.sample(range(16, 80), 8)]
    texts += [f"SELECT count(*) FROM wvmp WHERE day >= {d} "
              f"GROUP BY viewerOccupation TOP 10"
              for d in rng.sample(range(last - 10, last - 2), 8)]
    assert len(set(texts)) == POOL
    return texts


def partial_counts(cluster):
    return {name: sum(server.metrics.count(f"segment_partial_{name}")
                      for server in cluster.servers)
            for name in ("hits", "misses", "admitted")}


def test_partial_cache():
    schema = wvmp.schema()
    warmup = POOL // STEP_QUERIES
    records = wvmp.generate_records((warmup + STEPS) * STEP_ROWS,
                                    seed=DATA_SEED)
    texts = pool(random.Random(1))
    report = []

    cluster = PinotCluster(num_servers=3)
    cluster.create_kafka_topic("profile-views", 2)
    cluster.create_table(TableConfig.realtime(
        "wvmp", schema,
        StreamConfig("profile-views", flush_threshold_rows=FLUSH_ROWS,
                     records_per_poll=STEP_ROWS)))
    issued = 0
    for step in range(warmup + STEPS):
        if step == warmup:
            before = partial_counts(cluster)
        cluster.ingest("profile-views",
                       records[step * STEP_ROWS:(step + 1) * STEP_ROWS],
                       key_column="vieweeId")
        cluster.process_realtime()
        for __ in range(STEP_QUERIES):
            response = cluster.execute(texts[issued % POOL])
            assert not response.is_partial, response.exceptions
            issued += 1
    after = partial_counts(cluster)
    hits = after["hits"] - before["hits"]
    executed = after["misses"] - before["misses"]
    served = hits / (hits + executed)
    sealed = len(cluster.leader_controller().list_segments("wvmp_REALTIME"))
    assert cluster.execute("SELECT count(*) FROM wvmp").rows == [
        (len(records),)]
    report.append(f"ingest_query_mix shape: {STEPS} steps after "
                  f"{warmup} warm-up, {sealed} segments at the end: "
                  f"{hits} sealed-segment partials served, {executed} "
                  f"looked up and executed ({served:.0%} served), "
                  f"{after['admitted']} stored")

    cluster = PinotCluster(num_servers=3)
    cluster.create_table(TableConfig.offline("wvmp", schema))
    cluster.upload_records("wvmp", records, rows_per_segment=1_000)
    for viewee in range(300):
        cluster.execute(f"SELECT count(*) FROM wvmp WHERE vieweeId = {viewee}")
    unique = partial_counts(cluster)
    stored = sum(len(server.partial_cache) for server in cluster.servers)
    report.append(f"point_lookup shape: 300 unique texts, "
                  f"{unique['admitted']} partials stored, {stored} held")
    write_report("partial_cache", "\n".join(report))

    assert served >= 0.6
    assert unique["admitted"] == stored == 0
