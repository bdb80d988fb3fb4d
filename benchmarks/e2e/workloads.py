"""The four workloads: inputs, set-up, one round, and the oracle check.

Every workload drives ``PinotCluster(num_servers=3)`` through its public
facade only (``create_table``, ``upload_records``, ``create_kafka_topic``,
``ingest``, ``process_realtime``, ``execute``) from one thread, as a
closed loop with one client. The datasets come from fixed generator
seeds; the run's seed only picks and orders query parameters. The
cluster only ever sees records and PQL text.

A *round* is a fixed plan of *slots*: slot ``j`` has the same query
shape and the same cost class in every round, for any seed and on any
commit, and the slots of round ``i`` are issued in an order fixed by
``i`` alone. What fills a slot comes from its *cell*: a list of
candidate parameter tuples of like cost (same shape, neighbouring
selectivity), shuffled by the seed, from which every round takes the
next without replacement. Texts are therefore unique across the whole
run (a text-keyed cache inside the program cannot turn later rounds
into hits), two seeds run different texts of the same cost
distribution, and slot ``j``'s latencies line up across rounds
(``measure.py`` takes each slot's median over the rounds).

README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import gc
import math
import random
from typing import Any, Callable, Sequence

from calib import Meter, Samples

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.pql.parser import parse
from repro.sim.oracle import diff_summary, expected_rows, rows_match
from repro.sim.reference import evaluate
from repro.workloads import anomaly, wvmp
from repro.workloads.generator import COMPANIES, OCCUPATIONS, REGIONS

Record = dict[str, Any]
#: One operation of a round: the PQL text, the parameters the benchmark
#: rendered it from (the oracle check narrows by them), and its slot.
Item = tuple[str, tuple, int]

NUM_SERVERS = 3


class Tally:
    """Operations attempted and failed (exceptions, partial responses,
    oracle mismatches), with the first few reasons for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.reasons: list[str] = []

    def fail(self, reason: str, mismatch: bool = False) -> None:
        self.failed += 1
        self.mismatches += mismatch
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Probe:
    """What a traced run plugs into the loops: ``begin_op`` is called
    right before a call into the facade and ``end_op`` right after it
    (outside the two clock reads). The default does nothing."""

    def begin_op(self, kind: str) -> None:
        pass

    def end_op(self, response: Any = None, rows: int = 0) -> None:
        pass


NO_PROBE = Probe()


def query_block(cluster: PinotCluster, items: Sequence[Item], meter: Meter,
                samples: Samples, tally: Tally, probe: Probe = NO_PROBE,
                keep: list | None = None, series: str = "execute") -> None:
    """One calibrated block of the closed loop: one query at a time,
    nothing but ``execute`` between the two clock reads. A failed query
    leaves no latency."""
    clock = meter.clock
    execute = cluster.execute
    meter.begin()
    for item in items:
        tally.attempted += 1
        probe.begin_op("query")
        started = clock()
        try:
            response = execute(item[0])
        except Exception as exc:  # any escape is a failed operation
            probe.end_op()
            tally.fail(f"{type(exc).__name__}: {exc} [{item[0]}]")
            continue
        elapsed = clock() - started
        probe.end_op(response)
        if response.partial:
            tally.fail(f"partial response [{item[0]}]: "
                       f"{response.exceptions[:1]}")
            continue
        meter.record(series, elapsed, item[2])
        if keep is not None:
            keep.append((item, response.rows))
    meter.end(samples)


# -- the oracle check --------------------------------------------------------


def _expected_selection(query, records: Sequence[Record]) -> list[tuple]:
    """Reference rows for ``SELECT cols ... ORDER BY cols LIMIT n`` when
    every selected column is ordered on (ties are then identical rows,
    so the expected list is unique). ``expected_rows`` only models
    aggregations."""
    columns = [item.name for item in query.select]
    assert [o.expression.name for o in query.order_by] == columns
    assert not any(o.descending for o in query.order_by)
    if query.where is not None:
        records = [r for r in records if evaluate(query.where, r)]
    rows = sorted(tuple(r[c] for c in columns) for r in records)
    return rows[query.offset:query.offset + query.limit]


def check_answer(text: str, rows: Sequence[tuple],
                 candidates: Sequence[Record], tally: Tally) -> None:
    """Compare the answer the program gave for ``text`` with the oracle
    computed over ``candidates`` (the raw records, possibly pre-narrowed
    by the benchmark to a superset of the rows the text can match)."""
    query = parse(text)
    if query.is_aggregation:
        expected = expected_rows(query, candidates)
    else:
        expected = _expected_selection(query, candidates)
    if not rows_match(rows, expected):
        tally.fail(f"oracle mismatch [{text}]: "
                   f"{diff_summary(rows, expected)}", mismatch=True)


# -- cells: seeded, stratified, without replacement -----------------------------


class Cell:
    """Candidate parameter tuples of like cost, filling ``per_round``
    slots: every round takes the next ``per_round`` of them in the
    seed's shuffled order."""

    def __init__(self, render: Callable[..., str],
                 candidates: Sequence[tuple], per_round: int):
        self.render = render
        self.candidates = list(candidates)
        self.per_round = per_round

    def take(self, round_index: int, first_slot: int) -> list[Item]:
        low = round_index * self.per_round
        chosen = self.candidates[low:low + self.per_round]
        if len(chosen) < self.per_round:
            raise RuntimeError(
                f"text space exhausted at round {round_index}")
        return [(self.render(*params), params, first_slot + i)
                for i, params in enumerate(chosen)]


def _strata(ordered: Sequence, count: int) -> list[list]:
    """Cut ``ordered`` into ``count`` contiguous, near-equal strata."""
    count = max(1, min(count, len(ordered)))
    bounds = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [list(ordered[bounds[i]:bounds[i + 1]]) for i in range(count)]


def _by(records: Sequence[Record], column: str) -> dict[Any, list[Record]]:
    index: dict[Any, list[Record]] = {}
    for record in records:
        index.setdefault(record[column], []).append(record)
    return index


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


class Workload:
    """Shared shape of the four workloads (see ``measure.py`` for the
    loop that drives one)."""

    name: str
    #: The round's tail percentile: the highest with >= 10 slots beyond
    #: it at full scale.
    tail_q: float
    #: Full set-ups per run (the first one serves the queries).
    setups = 5
    #: Timed rounds the workload has unused texts for; the run ends
    #: there whatever ``--seconds`` says.
    max_rounds: float = math.inf

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        if scale < 1.0:
            self.setups = min(self.setups, 2)


# -- offline workloads ----------------------------------------------------------


class OfflineWorkload(Workload):
    """One offline table, pushed segment by segment, then rounds of
    unique queries."""

    table: str
    rows: int
    segments: int
    generate: Callable[..., list[Record]]
    data_seed: int
    #: Queries per round and per calibrated block, at full scale.
    ops_per_round: int
    block_ops: int
    #: Keep every n-th answer of the first timed round for the oracle.
    verify_every = 1
    #: Queries of round 0 run inside every set-up (lazy set-up inside
    #: the program — routing tables, hot-column caches — finishes
    #: there); the rest of round 0 is the untimed warm-up round.
    warmup_ops = 48

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.ops_per_round = _scaled(self.ops_per_round, scale, 12)
        self.rows = _scaled(self.rows, scale, 400 * self.segments)
        self.records = type(self).generate(self.rows, seed=self.data_seed)
        self.cells = self.make_cells()
        rng = random.Random(f"{self.name}/{seed}")
        for cell in self.cells:
            rng.shuffle(cell.candidates)
        assert sum(c.per_round for c in self.cells) == self.ops_per_round
        # Round 0 is the warm-up round.
        self.max_rounds = min(len(c.candidates) // c.per_round
                              for c in self.cells) - 1
        self.warmup_ops = min(self.warmup_ops, self.ops_per_round // 2)

    def make_cells(self) -> list[Cell]:
        raise NotImplementedError

    def table_config(self) -> TableConfig:
        raise NotImplementedError

    def candidates(self, params: tuple) -> Sequence[Record]:
        """Records the oracle must look at for a text made of
        ``params``."""
        return self.records

    def round_items(self, round_index: int) -> list[Item]:
        items: list[Item] = []
        for cell in self.cells:
            items += cell.take(round_index, len(items))
        # The order is the round's, not the seed's: every seed issues
        # the same shapes and cost classes in the same sequence.
        random.Random(f"{self.name}/{round_index}").shuffle(items)
        return items

    def setup(self, meter: Meter, samples: Samples, tally: Tally,
              probe: Probe = NO_PROBE) -> PinotCluster:
        """Everything the program does before the first timed round:
        cluster construction, ``create_table``, the push of every
        segment, and the warm-up queries. Each step is its own
        calibrated block; ``setup`` collects all of them and ``upload``
        the pushes alone."""
        clock = meter.clock
        meter.reset_edge()
        meter.begin()
        probe.begin_op("admin")
        started = clock()
        cluster = PinotCluster(num_servers=NUM_SERVERS)
        cluster.create_table(self.table_config())
        elapsed = clock() - started
        probe.end_op()
        meter.record("setup", elapsed)
        meter.end(samples)
        per_segment = -(-self.rows // self.segments)
        for low in range(0, self.rows, per_segment):
            chunk = self.records[low:low + per_segment]
            meter.begin()
            probe.begin_op("upload")
            started = clock()
            cluster.upload_records(self.table, chunk,
                                   rows_per_segment=len(chunk))
            elapsed = clock() - started
            probe.end_op(rows=len(chunk))
            meter.record("setup", elapsed)
            meter.record("upload", elapsed)
            meter.end(samples)
        query_block(cluster, self.round_items(0)[:self.warmup_ops], meter,
                    samples, tally, series="setup")
        return cluster

    def warmup_round(self, cluster: PinotCluster, meter: Meter,
                     tally: Tally) -> None:
        query_block(cluster, self.round_items(0)[self.warmup_ops:], meter,
                    Samples(), tally)

    def run_round(self, cluster: PinotCluster, round_index: int,
                  meter: Meter, samples: Samples, tally: Tally,
                  probe: Probe = NO_PROBE, keep: list | None = None) -> None:
        """Timed round ``round_index`` (>= 1; round 0 is warm-up)."""
        items = self.round_items(round_index)
        for low in range(0, len(items), self.block_ops):
            query_block(cluster, items[low:low + self.block_ops], meter,
                        samples, tally, probe, keep)

    def verify(self, kept: list, tally: Tally) -> int:
        """Check every ``verify_every``-th kept answer of the first
        timed round against the oracle; returns how many were checked."""
        checked = kept[::self.verify_every]
        for (text, params, _), rows in checked:
            check_answer(text, rows, self.candidates(params), tally)
        return len(checked)


def _wvmp_lookup_text(viewee: int, day: int, shape: str) -> str:
    """The WVMP page's shapes (sum / distinctcount / one-facet group-by,
    as in ``wvmp.generate_queries``), always ``vieweeId = me``; the day
    bound on every shape makes the space large enough to never repeat."""
    where = f"FROM wvmp WHERE vieweeId = {viewee} AND day >= {day}"
    if shape == "sum":
        return f"SELECT sum(views) {where}"
    if shape == "distinct":
        return f"SELECT distinctcount(viewerId) {where}"
    return f"SELECT sum(views) {where} GROUP BY {shape} TOP 10"


class PointLookup(OfflineWorkload):
    name = "point_lookup"
    tail_q = 0.98
    ops_per_round = 600
    block_ops = 50
    table = "wvmp"
    rows = 100_000
    segments = 8
    generate = wvmp.generate_records
    data_seed = 31
    FACETS = ("viewerCompany", "viewerRegion", "viewerOccupation")

    def make_cells(self) -> list[Cell]:
        self.by_viewee = _by(self.records, "vieweeId")
        # Viewee popularity is heavy-tailed and a look-up's cost grows
        # with the rows it touches: stratify by popularity so every
        # round asks for the same mix of popular and obscure members.
        ranked = sorted(self.by_viewee,
                        key=lambda v: (-len(self.by_viewee[v]), v))
        # "The last three weeks or more": the bound keeps 70-100 % of a
        # member's rows, so it multiplies the text space without
        # spreading the cost within a stratum.
        days = range(wvmp.FIRST_DAY, wvmp.FIRST_DAY + 10)
        cells = []
        per_shape = self.ops_per_round // 3
        for shapes in (("sum",), ("distinct",), self.FACETS):
            for index, stratum in enumerate(_strata(ranked, per_shape)):
                shape = shapes[index % len(shapes)]
                cells.append(Cell(
                    _wvmp_lookup_text,
                    [(v, d, shape) for v in stratum for d in days], 1))
        self.ops_per_round = len(cells)
        return cells

    def table_config(self) -> TableConfig:
        return TableConfig.offline(
            "wvmp", wvmp.schema(), replication=2,
            segment_config=wvmp.segment_config("sorted"))

    def candidates(self, params: tuple) -> Sequence[Record]:
        return self.by_viewee.get(params[0], ())


_SCAN_SELECTS = (
    "sum(value)",
    "count(*)",
    "avg(value)",
    "max(value), min(value)",
    "sum(eventCount), sum(value)",
)
_SCAN_GROUPS = (
    "country", "platform", "browser", "metricName",
    "country, platform", "platform, browser", "day, browser",
)


def _anomaly_scan_text(start: int, length: int, threshold: int,
                       select: str, group: str) -> str:
    return (f"SELECT {select} FROM anomaly WHERE day BETWEEN {start} "
            f"AND {start + length - 1} AND eventCount >= {threshold} "
            f"GROUP BY {group} TOP 20")


class ScanGroupBy(OfflineWorkload):
    name = "scan_groupby"
    tail_q = 0.95
    ops_per_round = 240
    block_ops = 20
    table = "anomaly"
    rows = 200_000
    segments = 3
    generate = anomaly.generate_records
    data_seed = 7
    #: The brute-force oracle costs ~0.1 s per text here.
    verify_every = 12
    COST_CLASSES = 8

    def make_cells(self) -> list[Cell]:
        self.by_day = _by(self.records, "day")
        # A scan's cost grows with the rows its filters keep: order the
        # (window, threshold) grid by expected selectivity and cut it
        # into classes, so slot j of every round costs about the same.
        grid = [(start, length, threshold)
                for length in range(3, 11)
                for start in range(anomaly.FIRST_DAY,
                                   anomaly.FIRST_DAY + anomaly.NUM_DAYS
                                   - length + 1)
                for threshold in range(2, 13)]
        grid.sort(key=lambda p: (p[1] * (21 - p[2]), p))
        classes = _strata(grid, self.COST_CLASSES)
        # 5, 7 and 8 are pairwise coprime: slot j's (select, group,
        # class) triple is distinct for every j < 280, so no two slots
        # can render the same text.
        assert self.ops_per_round <= 280
        return [
            Cell(_anomaly_scan_text,
                 [p + (_SCAN_SELECTS[j % 5], _SCAN_GROUPS[j % 7])
                  for p in classes[j % self.COST_CLASSES]],
                 1)
            for j in range(self.ops_per_round)
        ]

    def table_config(self) -> TableConfig:
        return TableConfig.offline("anomaly", anomaly.schema())

    def candidates(self, params: tuple) -> Sequence[Record]:
        start, length = params[0], params[1]
        return [r for day in range(start, start + length)
                for r in self.by_day.get(day, ())]


def _wvmp_wide_text(start: int, length: int, viewee: int,
                    shape: str) -> str:
    """Three shapes whose partial state is wide: a big distinct set, a
    group map with one entry per viewer, and 500-row selections. The
    ``<>`` on an obscure member keeps texts unique without narrowing
    the scan."""
    where = (f"FROM wvmp WHERE day BETWEEN {start} AND "
             f"{start + length - 1} AND vieweeId <> {viewee}")
    if shape == "distinct":
        return f"SELECT distinctcount(viewerId) {where}"
    if shape == "group":
        return f"SELECT sum(views) {where} GROUP BY viewerId TOP 20"
    return (f"SELECT viewerId, vieweeId, day {where} "
            f"ORDER BY viewerId, vieweeId, day LIMIT 500")


class WideState(OfflineWorkload):
    name = "wide_state"
    tail_q = 0.90
    ops_per_round = 120
    block_ops = 6
    table = "wvmp"
    rows = 6_000
    segments = 6
    generate = wvmp.generate_records
    data_seed = 31
    warmup_ops = 12
    WINDOW_CLASSES = 4

    def make_cells(self) -> list[Cell]:
        counts = {v: len(rs) for v, rs in _by(self.records,
                                              "vieweeId").items()}
        obscure = sorted(counts, key=lambda v: (counts[v], v))
        obscure = obscure[:max(8, len(obscure) // 2)]
        windows = [(start, length)
                   for length in range(20, wvmp.NUM_DAYS + 1)
                   for start in range(wvmp.FIRST_DAY,
                                      wvmp.FIRST_DAY + wvmp.NUM_DAYS
                                      - length + 1)]
        windows.sort(key=lambda w: (w[1], w))
        per_cell = self.ops_per_round // (3 * self.WINDOW_CLASSES)
        cells = [
            Cell(_wvmp_wide_text,
                 [w + (v, shape) for w in window_class for v in obscure],
                 per_cell)
            for shape in ("distinct", "group", "select")
            for window_class in _strata(windows, self.WINDOW_CLASSES)
        ]
        self.ops_per_round = per_cell * len(cells)
        return cells

    def table_config(self) -> TableConfig:
        return TableConfig.offline("wvmp", wvmp.schema())


# -- realtime workload ------------------------------------------------------------


class IngestQueryMix(Workload):
    """A fresh cluster per round; each step ingests rows, consumes them
    and then queries the consuming + sealed segments."""

    name = "ingest_query_mix"
    tail_q = 0.95
    TOPIC = "profile-views"
    PARTITIONS = 2
    #: One step: ingest STEP_ROWS, ``process_realtime``, STEP_QUERIES
    #: queries. The first query after an ingest rebuilds the consuming
    #: segments' snapshots, so 1 query in STEP_QUERIES is slow: the
    #: round's p95 sits in the middle of those, not on their edge.
    STEP_ROWS = 250
    STEP_QUERIES = 10
    steps_per_round = 48
    #: Rows per partition per sealed segment: several seals per
    #: partition per round.
    flush_rows = 1_500
    POOL = 40
    #: Every round's set-up ends with this many untimed steps: each
    #: text of the pool is run once before the timed steps start.
    WARMUP_STEPS = POOL // STEP_QUERIES
    #: Timed steps of the first timed round whose answers the oracle
    #: checks.
    verify_steps = (4, 20, 36, 48)
    setups = 0  # a cluster is built every round instead

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.steps_per_round = _scaled(self.steps_per_round, scale, 8)
        if scale < 1.0:  # a short round must still seal
            self.flush_rows = 400
        self.rows = ((self.WARMUP_STEPS + self.steps_per_round)
                     * self.STEP_ROWS)
        self.records = wvmp.generate_records(self.rows, seed=31)
        self.pool = self._make_pool(random.Random(f"{self.name}/{seed}"))
        self.verify_steps = tuple(
            s for s in self.verify_steps if s <= self.steps_per_round
        ) or (self.steps_per_round,)

    def _make_pool(self, rng: random.Random) -> list[str]:
        """Eight texts of each of five shapes — count, filtered count,
        filtered group-by, key look-up, recent-day group-by — issued
        round-robin: monitoring traffic, the same texts over changing
        data."""
        counts = _by(self.records, "vieweeId")
        ranked = sorted(counts, key=lambda v: (-len(counts[v]), v))
        # Parameters of like selectivity, so that two seeds' pools cost
        # the same: mid-popularity members, the last 3-10 days.
        viewees = [rng.choice(s) for s in _strata(ranked[16:80], 8)]
        days = rng.sample(range(wvmp.FIRST_DAY + wvmp.NUM_DAYS - 10,
                                wvmp.FIRST_DAY + wvmp.NUM_DAYS - 2), 8)
        texts = ["SELECT count(*) FROM wvmp"]
        texts += [f"SELECT count(*) FROM wvmp WHERE viewerCompany = '{c}'"
                  for c in rng.sample(COMPANIES, 7)]
        texts += [f"SELECT count(*) FROM wvmp WHERE viewerOccupation = "
                  f"'{o}'" for o in rng.sample(OCCUPATIONS, 8)]
        texts += [f"SELECT sum(views) FROM wvmp WHERE viewerRegion = '{r}' "
                  f"GROUP BY viewerCompany TOP 10"
                  for r in rng.sample(REGIONS, 8)]
        texts += [f"SELECT sum(views), distinctcount(viewerId) FROM wvmp "
                  f"WHERE vieweeId = {v}" for v in viewees]
        texts += [f"SELECT count(*) FROM wvmp WHERE day >= {d} "
                  f"GROUP BY viewerOccupation TOP 10" for d in days]
        assert len(texts) == self.POOL == len(set(texts))
        # Interleave the shapes, so every step runs the same shape mix.
        texts = [texts[shape * 8 + i] for i in range(8)
                 for shape in range(5)]
        return texts

    def _step(self, cluster: PinotCluster, step: int, meter: Meter,
              samples: Samples, tally: Tally, probe: Probe,
              keep: list | None, series: str | None = None) -> None:
        """Step ``step`` (the first ``WARMUP_STEPS`` are the warm-up):
        rows, then queries, in one calibrated block."""
        low = step * self.STEP_ROWS
        rows = self.records[low:low + self.STEP_ROWS]
        first = step * self.STEP_QUERIES
        items = [(self.pool[(first + i) % self.POOL], (), first + i)
                 for i in range(self.STEP_QUERIES)]
        clock = meter.clock
        meter.begin()
        tally.attempted += 1
        probe.begin_op("ingest")
        started = clock()
        try:
            cluster.ingest(self.TOPIC, rows, key_column="vieweeId")
            cluster.process_realtime()
        except Exception as exc:
            probe.end_op()
            tally.fail(f"ingest: {type(exc).__name__}: {exc}")
        else:
            elapsed = clock() - started
            probe.end_op(rows=len(rows))
            meter.record(series or "ingest", elapsed, step)
        kept: list | None = [] if keep is not None else None
        query_block(cluster, items, meter, samples, tally, probe, kept,
                    series or "execute")
        if keep is not None:
            keep.extend((item, answer, low + len(rows))
                        for item, answer in kept)

    def run_round(self, cluster: None, round_index: int, meter: Meter,
                  samples: Samples, tally: Tally, probe: Probe = NO_PROBE,
                  keep: list | None = None) -> None:
        """Build a cluster (that is this workload's set-up: construction,
        topic, table and the warm-up steps), then the round's steps."""
        gc.collect()
        clock = meter.clock
        meter.reset_edge()
        meter.begin()
        probe.begin_op("admin")
        started = clock()
        cluster = PinotCluster(num_servers=NUM_SERVERS)
        cluster.create_kafka_topic(self.TOPIC, self.PARTITIONS)
        cluster.create_table(TableConfig.realtime(
            "wvmp", wvmp.schema(),
            StreamConfig(self.TOPIC, flush_threshold_rows=self.flush_rows,
                         records_per_poll=self.STEP_ROWS),
        ))
        elapsed = clock() - started
        probe.end_op()
        meter.record("setup", elapsed)
        for step in range(self.WARMUP_STEPS):
            self._step(cluster, step, meter, samples, tally, NO_PROBE, None,
                       series="setup")
        for timed in range(1, self.steps_per_round + 1):
            wanted = keep is not None and timed in self.verify_steps
            self._step(cluster, self.WARMUP_STEPS - 1 + timed, meter,
                       samples, tally, probe, keep if wanted else None)

    def verify(self, kept: list, tally: Tally) -> int:
        for (text, _, _), rows, produced in kept:
            check_answer(text, rows, self.records[:produced], tally)
        return len(kept)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PointLookup, ScanGroupBy, WideState, IngestQueryMix)
}
