"""Parity on the paper's query logs: every query of the fig11 (anomaly,
inverted indexes) and fig14 (share analytics, sorted on itemId) logs
through the vectorized engine and the scalar oracle over the same
segment, compared the way ``verify_engines_agree`` compares benchmark
engines. Star-trees are off so both engines run their actual filter
and aggregate paths.
"""

import pytest

from repro.bench.harness import (
    compile_queries,
    make_segment_executor,
    verify_engines_agree,
)
from repro.segment.builder import SegmentBuilder
from repro.workloads import anomaly, share_analytics

NUM_ROWS = 4_000
NUM_QUERIES = 30

LOGS = {
    "fig11_anomaly": (anomaly, anomaly.segment_config("inverted")),
    "fig14_shares": (share_analytics, share_analytics.segment_config()),
}


@pytest.mark.parametrize("log", sorted(LOGS))
def test_vectorized_agrees_with_scalar_on_every_query(log):
    workload, config = LOGS[log]
    builder = SegmentBuilder(f"{log}_0", log, workload.schema(), config)
    builder.add_all(workload.generate_records(NUM_ROWS))
    segment = builder.build()
    queries = compile_queries(workload.generate_queries(NUM_QUERIES))
    engines = {
        "vectorized": make_segment_executor([segment],
                                            allow_star_tree=False),
        "scalar": make_segment_executor([segment], allow_star_tree=False,
                                        vectorized=False),
    }
    verify_engines_agree(queries, engines, sample=len(queries))
    answered = sum(bool(engines["vectorized"](q).table.rows)
                   for q in queries)
    assert answered >= len(queries) // 2, answered
