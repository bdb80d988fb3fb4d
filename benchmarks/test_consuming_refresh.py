"""What one refresh of a consuming segment costs as the segment grows.

A query that follows an ingest step needs a new view of the consuming
segment (§3.3.6). The sweep consumes 1.5k / 6k / 24k WVMP rows — a view
taken after every 250, as the e2e benchmark's steps do — then times the
view that follows 250 more rows, and that view's first query. The cost
must follow the rows *added*, not the rows consumed: a segment 16 times
the size may cost at most twice as much to refresh. (A builder run over
every row consumed so far, which is what a refresh used to be, doubles
per doubling.)
"""

import time

from benchmarks._common import write_report
from repro.engine.executor import execute_segment
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.mutable import MutableSegment
from repro.workloads import wvmp

SIZES = (1_500, 6_000, 24_000)
STEP = 250
TRIALS = 7
QUERY = ("SELECT sum(views) FROM wvmp WHERE viewerRegion = 'region-00003' "
         "GROUP BY viewerCompany TOP 10")


def _refresh_costs_us(rows: list[dict], consumed: int) -> tuple[float, float]:
    """Best-of-``TRIALS`` (refresh, refresh + first query) after
    ``STEP`` rows arrive at a segment holding ``consumed``."""
    query = optimize(parse(QUERY))
    refresh = first_query = float("inf")
    for __ in range(TRIALS):
        mutable = MutableSegment("wvmp__0__0", "wvmp", wvmp.schema())
        for low in range(0, consumed, STEP):
            mutable.index_all(rows[low:low + STEP])
            mutable.snapshot()
        mutable.index_all(rows[consumed:consumed + STEP])
        started = time.perf_counter()
        view = mutable.snapshot()
        refreshed = time.perf_counter()
        execute_segment(view, query)
        done = time.perf_counter()
        assert view.num_docs == consumed + STEP
        refresh = min(refresh, refreshed - started)
        first_query = min(first_query, done - started)
    return refresh * 1e6, first_query * 1e6


def test_refresh_cost_is_flat_in_rows_consumed(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = wvmp.generate_records(SIZES[-1] + STEP, seed=31)
    costs = {size: _refresh_costs_us(rows, size) for size in SIZES}
    base = costs[SIZES[0]][0]
    lines = [f"one refresh after +{STEP} rows, best of {TRIALS} "
             f"(wvmp, {len(wvmp.schema())} columns)",
             "rows consumed | refresh us | x 1.5k | refresh + first query us"]
    for size in SIZES:
        refresh, first_query = costs[size]
        lines.append(f"{size:>13,} | {refresh:>10.0f} | {refresh / base:>6.2f} "
                     f"| {first_query:>10.0f}")
    write_report("consuming_refresh", "\n".join(lines))
    assert costs[SIZES[-1]][0] <= 2.0 * base, costs
