"""The deterministic whole-cluster simulation harness.

FoundationDB-style simulation testing for the repro cluster: a seeded
RNG drives a random schedule of whole-cluster operations (queries,
ingestion, segment uploads/replaces/deletes, rebalances, server
crashes/kills/joins, controller failover, cache invalidations, link
degradation, virtual-time jumps) against an in-process
:class:`~repro.cluster.pinot.PinotCluster` running entirely on a manual
virtual clock. After every step the harness checks the invariant
catalogue in :mod:`repro.sim.invariants`, comparing query answers to
the brute-force oracle in :mod:`repro.sim.oracle`.

Two execution modes share one code path:

* **generate** — ops are drawn from the seeded RNG *while the cluster
  runs*, each resolved against harness-tracked state (which segment to
  delete, which server to crash) and recorded fully concrete;
* **replay** — a recorded (possibly shrunk) :class:`Schedule` is
  executed verbatim.

Because every source of nondeterminism (clock, transport, broker
seeds, record generation, op choice) flows from the schedule, replaying
a schedule reproduces the run bit-for-bit — the ``digest`` over the
observation stream is identical, which ``tests/sim/test_replay.py``
asserts.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.cluster.health import HealthPolicy
from repro.cluster.pinot import PinotCluster
from repro.cluster.server import parse_realtime_segment_name
from repro.cluster.table import StreamConfig, TableConfig, TableType
from repro.upsert.config import UpsertConfig
from repro.common.records import to_plain
from repro.common.timeutils import time_boundary
from repro.errors import ClusterError
from repro.kafka.partitioner import kafka_partition
from repro.net import SimClock, Transport
from repro.pql.parser import parse
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.sim import workload
from repro.sim.invariants import (Violation, check_completion_safety,
                                  check_convergence,
                                  check_ejection_discipline,
                                  check_residency)
from repro.sim.oracle import (approx_check, diff_summary, expected_rows,
                              reduce_per_key, rows_match)
from repro.sim.schedule import Op, Schedule

LOGICAL_TABLE = "events"
TOPIC = "events-topic"


def _with_options(pql: str, *options: str) -> str:
    """Attach ``OPTION(...)`` to a base query (no-op without options)."""
    if not options:
        return pql
    return f"{pql} OPTION({', '.join(options)})"

DEFAULT_CONFIG: dict[str, Any] = {
    "num_servers": 4,
    "num_brokers": 2,
    "num_controllers": 3,
    "num_partitions": 2,
    "replication": 2,
    "flush_threshold_rows": 120,
    "flush_threshold_ticks": 40,
    "records_per_poll": 25,
    #: Engine under test: batch kernels (True) or the row-at-a-time
    #: scalar executor (False). The invariant checker's naive oracle is
    #: always scalar Python over record dicts, so a vectorized run makes
    #: every seeded fault schedule double as an engine-equivalence
    #: check, and a scalar run cross-checks the oracle engine itself.
    "engine_vectorized": True,
    #: A key of :data:`SCENARIOS`.
    "workload": "default",
    #: Per-server segment-cache byte budget (repro.store); None keeps
    #: every hosted segment resident. A finite budget turns every run
    #: into a memory-pressure schedule: queries cold-load and evict
    #: segments constantly, and the oracle verifies results are
    #: identical regardless of residency.
    "store_budget_bytes": None,
    "store_policy": "lru",
}

#: (op kind, relative weight) — the schedule generator's op mix.
OP_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("query", 30.0),
    ("ingest", 18.0),
    ("consume", 20.0),
    ("advance_time", 5.0),
    ("upload_segment", 4.0),
    ("crash_server", 4.0),
    ("recover_server", 6.0),
    ("degrade_server", 3.0),
    ("rebalance", 2.5),
    ("cache_invalidate", 2.0),
    ("replace_segment", 2.0),
    ("delete_segment", 1.5),
    ("kill_server", 1.0),
    ("add_server", 1.5),
    ("kill_controller", 1.0),
    ("evict_residency", 2.0),
)

#: Ops left out of the realtime-only upsert/dedup scenarios. There is
#: no offline table to upload/replace/delete from. ``kill_server`` is
#: left out because dead upsert replicas are not re-seated (see
#: ``Controller._reassign_dead_replicas``): a chain that lost every
#: replica comes back only at the next rebalance, and queries between
#: the kill and that rebalance miss the partition without being flagged
#: partial, because the broker skips replica-less segments (ROADMAP
#: I). Restart/failover coverage comes from crash/recover plus the
#: dedicated regression tests instead.
_NON_UPSERT_OPS = frozenset({
    "upload_segment", "replace_segment", "delete_segment", "kill_server",
})

#: The production workload's op mix: query-heavy traffic with servers
#: degrading and recovering mid-run — the failure detector's natural
#: habitat.
PRODUCTION_OP_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("query", 42.0),
    ("ingest", 14.0),
    ("consume", 16.0),
    ("advance_time", 8.0),
    ("upload_segment", 3.0),
    ("crash_server", 3.0),
    ("recover_server", 8.0),
    ("degrade_server", 8.0),
    ("rebalance", 2.0),
    ("cache_invalidate", 2.0),
    ("replace_segment", 1.5),
    ("delete_segment", 1.0),
    ("kill_server", 0.5),
    ("add_server", 1.0),
    ("kill_controller", 0.5),
    ("evict_residency", 1.5),
)

#: Broker failure-detector tuning for the production workload: small
#: sample bounds so a 60-op schedule can reach eject -> probe -> heal,
#: and a latency floor well above healthy sub-request times so only
#: injected degradation trips the outlier check.
SIM_HEALTH_POLICY = HealthPolicy(
    min_samples=4,
    error_threshold=0.5,
    latency_multiplier=6.0,
    latency_floor_s=0.05,
    probe_interval_s=0.5,
    probe_successes_to_heal=2,
    max_ejected_fraction=0.5,
)

#: Timestamp-index granularities for the approx workload: raw days and
#: 5-day buckets, matching the timebucket sizes the query generator
#: draws.
SIM_TIME_GRANULARITIES = (1, 5)


@dataclass(frozen=True)
class Scenario:
    """One sim workload: everything the harness does differently for it
    (docs/SIMULATION.md, "Scenarios")."""

    #: (op kind, relative weight): the schedule generator's op mix.
    op_weights: tuple[tuple[str, float], ...]
    #: None: the hybrid offline+realtime table, with a founding offline
    #: segment. ``"upsert"`` / ``"dedup"``: a realtime-only table keyed
    #: on memberId, whose oracle keeps the latest / first produced row
    #: per key (:func:`repro.sim.oracle.reduce_per_key`); dedup also
    #: relaxes completion safety's doc counts.
    upsert_mode: str | None = None
    #: The brokers' failure detector. With one, the epilogue also pumps
    #: probe traffic until every healed server is back in rotation.
    health: HealthPolicy | None = None
    #: ``degrade_server``'s (latency_ms, error_rate) choices.
    degrade: tuple[tuple[int, ...], tuple[float, ...]] = (
        (5, 20, 80), (0.0, 0.2, 0.5))
    #: A timestamp index on every segment, the broker's approximation
    #: rewrite at threshold 0 (so ``OPTION(useApproximateFunction=true)``
    #: always rewrites), and bound-checked approx queries in the
    #: epilogue's battery.
    approx: bool = False


_REALTIME_ONLY_WEIGHTS = tuple((kind, weight) for kind, weight in OP_WEIGHTS
                               if kind not in _NON_UPSERT_OPS)

#: The sim's workloads, by the name the ``workload`` config key holds.
SCENARIOS: dict[str, Scenario] = {
    "default": Scenario(OP_WEIGHTS),
    "upsert": Scenario(_REALTIME_ONLY_WEIGHTS, upsert_mode="upsert"),
    "dedup": Scenario(_REALTIME_ONLY_WEIGHTS, upsert_mode="dedup"),
    # Harsh enough to trip the failure detector's EWMA/outlier
    # thresholds within a few queries.
    "production": Scenario(PRODUCTION_OP_WEIGHTS, health=SIM_HEALTH_POLICY,
                           degrade=((100, 250), (0.0, 0.6, 0.9))),
    "approx": Scenario(OP_WEIGHTS + (("approx_query", 25.0),), approx=True),
}


@dataclass
class SimResult:
    """Everything one run produced."""

    schedule: Schedule
    violations: list[Violation] = field(default_factory=list)
    steps_executed: int = 0
    #: SHA-256 over the observation stream; equal digests mean the runs
    #: were observationally identical.
    digest: str = ""
    observations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else (
            f"FAIL ({self.violations[0]})"
        )
        return (f"seed={self.schedule.seed} steps={self.steps_executed}"
                f"/{len(self.schedule)} digest={self.digest[:12]} "
                f"{verdict}")


class _Model:
    """The harness's own ledger of what data logically exists.

    Maintained purely from the ops the harness itself applied — never
    read back from the cluster — so engine bugs cannot leak into the
    expected answers.
    """

    def __init__(self, num_partitions: int):
        self.offline_segments: dict[str, list[dict]] = {}
        self.produced: dict[int, list[dict]] = {
            p: [] for p in range(num_partitions)
        }

    def offline_rows(self) -> list[dict]:
        return [record
                for __, records in sorted(self.offline_segments.items())
                for record in records]

    def max_offline_day(self) -> int | None:
        days = [record["day"] for record in self.offline_rows()]
        return max(days) if days else None


class SimulationHarness:
    """Builds the scenario cluster and runs one schedule against it."""

    def __init__(self, schedule: Schedule,
                 stop_on_violation: bool = True):
        self.schedule = schedule
        self.stop_on_violation = stop_on_violation
        self.config = dict(DEFAULT_CONFIG)
        self.config.update(schedule.config)
        self.scenario = SCENARIOS.get(self.config["workload"])
        if self.scenario is None:
            raise ValueError(f"{schedule.config!r} names no scenario; "
                             f"the scenarios are {list(SCENARIOS)}")
        self.rng = random.Random(schedule.seed)
        self.violations: list[Violation] = []
        self.observations: list[str] = []
        self._step = -1
        self._op: Op | None = None
        self._build_cluster()

    # -- scenario construction ------------------------------------------------

    def _build_cluster(self) -> None:
        cfg = self.config
        scenario = self.scenario
        clock = SimClock(auto_advance=False)
        transport = Transport(clock, seed=self.schedule.seed)
        self.cluster = PinotCluster(
            num_servers=cfg["num_servers"],
            num_brokers=cfg["num_brokers"],
            num_controllers=cfg["num_controllers"],
            seed=self.schedule.seed,
            clock=clock,
            transport=transport,
            default_vectorized=bool(cfg["engine_vectorized"]),
            store_budget_bytes=cfg["store_budget_bytes"],
            store_policy=cfg["store_policy"],
            failure_detector=scenario.health,
            # Threshold 0 so a per-query OPTION(useApproximateFunction)
            # deterministically rewrites every eligible aggregate — the
            # broker default stays off, so exact `query` ops are
            # untouched.
            approx_threshold=0 if scenario.approx else 10_000,
        )
        self.model = _Model(cfg["num_partitions"])
        schema = workload.schema()
        self.cluster.create_kafka_topic(TOPIC, cfg["num_partitions"])
        stream = StreamConfig(
            TOPIC,
            flush_threshold_rows=cfg["flush_threshold_rows"],
            flush_threshold_ticks=cfg["flush_threshold_ticks"],
            records_per_poll=cfg["records_per_poll"],
        )
        self.offline_table = f"{LOGICAL_TABLE}_{TableType.OFFLINE.value}"
        self.realtime_table = f"{LOGICAL_TABLE}_{TableType.REALTIME.value}"
        if scenario.upsert_mode is None:
            # With approx, per-segment time rollups let GROUP BY day /
            # timebucket(day, 5) queries be answered from the timestamp
            # index on both table legs.
            segment_config = SegmentConfig(
                timestamp_index=SIM_TIME_GRANULARITIES if scenario.approx
                else ())
            self.cluster.create_table(TableConfig.offline(
                LOGICAL_TABLE, schema, replication=cfg["replication"],
                segment_config=segment_config,
            ))
            self.cluster.create_table(TableConfig.realtime(
                LOGICAL_TABLE, schema, stream,
                replication=cfg["replication"],
                segment_config=segment_config,
            ))
            # A founding offline segment so the hybrid time boundary is
            # always defined (days [BASE_DAY, BASE_DAY + 4]).
            self._execute(Op("upload_segment", {
                "seed": self.schedule.seed ^ 0x5EED,
                "count": 60,
                "min_day": workload.BASE_DAY,
                "max_day": workload.BASE_DAY + 4,
            }))
        else:
            # Realtime-only: upsert/dedup are stream-native semantics
            # (there is no offline leg to upsert into). Arrival order
            # decides the winner (no comparison column).
            self.cluster.create_table(TableConfig.realtime(
                LOGICAL_TABLE, schema, stream,
                replication=cfg["replication"],
                upsert=UpsertConfig(mode=scenario.upsert_mode,
                                    key_columns=("memberId",)),
            ))

        # Mirrors used by *generation* so drawing an op never has to
        # interrogate (and accidentally perturb) the cluster.
        self._live_servers = [s.instance_id for s in self.cluster.servers]
        self._crashed: set[str] = set()
        self._degraded: set[str] = set()
        self._controllers = [c.instance_id
                             for c in self.cluster.controllers]

    # -- observation stream ---------------------------------------------------

    def _observe(self, line: str) -> None:
        self.observations.append(f"{self._step}|{line}")

    def _violation(self, invariant: str, detail: str) -> Violation:
        violation = Violation(
            invariant=invariant, detail=detail, step=self._step,
            op=to_plain(self._op) if self._op is not None else {},
        )
        self.violations.append(violation)
        self._observe(f"VIOLATION {violation}")
        return violation

    def _check(self, invariant: str, detail: str | None) -> None:
        if detail is not None:
            self._violation(invariant, detail)

    def _guarded(self, what: str, action: Callable[..., Any],
                 *args: Any) -> bool:
        """Run ``action(*args)``; an exception from the system under
        test is a ``harness_crash`` violation. True if it returned."""
        try:
            action(*args)
        except Exception:
            self._violation(
                "harness_crash",
                f"{what} raised:\n{traceback.format_exc(limit=8)}",
            )
            return False
        return True

    # -- run loop -------------------------------------------------------------

    def run(self) -> SimResult:
        """Replay mode: execute the recorded schedule verbatim."""
        return self._run(list(self.schedule.ops))

    def generate_and_run(self, num_steps: int) -> SimResult:
        """Generate mode: draw, record and execute ``num_steps`` ops."""
        return self._run(self._generate(num_steps))

    def _run(self, ops: Iterable[Op]) -> SimResult:
        for op in ops:
            self._step += 1
            self._execute(op)
            if self.violations and self.stop_on_violation:
                return self._result()
        self._step = len(self.schedule.ops)
        self._op = None
        self._epilogue()
        return self._result()

    def _result(self) -> SimResult:
        digest = hashlib.sha256(
            "\n".join(self.observations).encode("utf-8")
        ).hexdigest()
        return SimResult(
            schedule=self.schedule,
            violations=list(self.violations),
            steps_executed=min(self._step + 1, len(self.schedule)),
            digest=digest,
            observations=list(self.observations),
        )

    def _execute(self, op: Op) -> None:
        self._op = op
        handler = self._HANDLERS.get(op.kind)
        if handler is None:
            self._violation("harness_crash", f"unknown op kind {op.kind!r}")
            return
        self._observe(f"op {op}")
        if not self._guarded(str(op), handler, self, op):
            return
        self._check_completion_safety()
        self._check("residency_budget", check_residency(self.cluster.servers))
        self._check("ejection_discipline",
                    check_ejection_discipline(self.cluster.brokers))

    def _check_completion_safety(self) -> None:
        self._check("completion_safety", check_completion_safety(
            self.cluster.helix, self.cluster.object_store,
            self.realtime_table, dedup=self.scenario.upsert_mode == "dedup",
        ))

    # -- visibility model (oracle inputs) -------------------------------------

    def _visible_offset(self, partition: int) -> tuple[bool, int]:
        """(determinate?, visible kafka offset) for one partition.

        The visible prefix is the committed chain plus the consuming
        segment's rows — but only when every live, non-crashed replica
        agrees on the consuming offset; otherwise the answer depends on
        which replica the broker picks and the oracle must stand down.
        """
        helix = self.cluster.helix
        committed_end = 0
        consuming: str | None = None
        entries = []
        for name in helix.list_properties(f"realtime/{self.realtime_table}"):
            __, seg_partition, sequence = parse_realtime_segment_name(name)
            if seg_partition != partition:
                continue
            meta = helix.get_property(
                f"realtime/{self.realtime_table}/{name}") or {}
            entries.append((sequence, name, meta))
        for __, name, meta in sorted(entries):
            if meta.get("status") == "DONE":
                committed_end = meta.get("end_offset", committed_end)
            else:
                consuming = name
        if consuming is None:
            return True, committed_end

        ideal = helix.ideal_state(self.realtime_table)
        offsets = []
        for instance in ideal.get(consuming, {}):
            try:
                server = self.cluster.server(instance)
            except ClusterError:
                continue  # killed instance still in a stale mapping
            if server.faults.crashed:
                continue
            offset = server.consuming_offset(self.realtime_table, consuming)
            if offset is None:
                return False, 0  # replica never started consuming
            offsets.append(offset)
        if not offsets or len(set(offsets)) > 1:
            return False, 0
        return True, offsets[0]

    def _visible_rows(self) -> tuple[bool, list[dict]]:
        """(determinate?, logically visible rows of the table).

        Each partition's visible prefix goes through the scenario's
        per-key reduction. Keys are partitioned by memberId, so
        per-partition reduction equals global reduction.
        """
        offline = self.model.offline_rows()
        realtime: list[dict] = []
        for partition, produced in sorted(self.model.produced.items()):
            determinate, offset = self._visible_offset(partition)
            if not determinate:
                return False, []
            realtime.extend(reduce_per_key(
                produced[:offset], "memberId", self.scenario.upsert_mode))
        max_day = self.model.max_offline_day()
        if max_day is None:
            return True, realtime
        config = self.cluster.table_config(self.offline_table)
        boundary = time_boundary(max_day, config.retention_granularity)
        visible = [r for r in offline if r["day"] <= boundary]
        visible += [r for r in realtime if r["day"] > boundary]
        return True, visible

    # -- op handlers ----------------------------------------------------------

    def _checked_query(self, base: str, options: list[str],
                       oracle: Callable[[Any, list[dict]],
                                        tuple[str, str | None]],
                       approx: bool = False) -> None:
        """Run ``base`` with ``options``, then again uncached. Unless an
        answer is partial or the visible rows are indeterminate, the two
        must agree (cache coherence), and ``oracle(uncached response,
        visible rows)`` names the invariant it checks and what broke it
        (None when it holds)."""
        pql = _with_options(base, *options)
        label = "approx " if approx else ""
        response = self.cluster.execute(pql)
        rewrites = f"rewrites={response.rewrites!r} " if approx else ""
        self._observe(f"{label}result partial={response.is_partial} "
                      f"cache_hit={response.cache_hit} "
                      f"{rewrites}rows={response.rows!r}")
        uncached = self.cluster.execute(
            _with_options(base, *options, "skipCache=true"))
        self._observe(f"{label}uncached partial={uncached.is_partial} "
                      f"rows={uncached.rows!r}")
        if response.is_partial or uncached.is_partial:
            return  # partial answers are labelled, not wrong (§3.3.4)
        determinate, visible = self._visible_rows()
        self._observe(f"visible determinate={determinate} "
                      f"n={len(visible)}")
        if not determinate:
            return
        if not rows_match(response.rows, uncached.rows):
            self._violation(
                "cache_coherence",
                f"{pql}: cached {response.rows!r} != uncached "
                f"{uncached.rows!r} (cache_hit={response.cache_hit})",
            )
            return
        invariant, detail = oracle(uncached, visible)
        if detail is not None:
            self._violation(invariant, f"{pql}: {detail}")

    def _op_query(self, op: Op) -> None:
        pql = workload.random_query(random.Random(op.params["seed"]),
                                    LOGICAL_TABLE)

        def oracle(uncached, visible):
            expected = expected_rows(parse(pql), visible)
            if rows_match(uncached.rows, expected):
                return "query_oracle", None
            return "query_oracle", diff_summary(uncached.rows, expected)

        self._checked_query(pql, [], oracle)

    def _op_approx_query(self, op: Op) -> None:
        """A query over the approximation surface (invariant: bounds).

        The sketches are deterministic, so cache coherence stays an
        exact row-for-row comparison (but a quantile sketch's merge is
        not associative, so two routings of one query can differ:
        ROADMAP F(8)); correctness against the oracle is checked by
        :func:`repro.sim.oracle.approx_check`, which keys by group and
        accepts estimates within the declared error bounds.
        """
        base, use_rewrite = workload.random_approx_query(
            random.Random(op.params["seed"]), LOGICAL_TABLE)
        opts = ["useApproximateFunction=true"] if use_rewrite else []

        def oracle(uncached, visible):
            if use_rewrite and not uncached.rewrites:
                return ("approx_rewrite", "useApproximateFunction=true at "
                        "threshold 0 produced no rewrite")
            return "approx_oracle", approx_check(
                parse(base), visible, uncached.rows, rewritten=use_rewrite)

        self._checked_query(base, opts, oracle, approx=True)

    def _op_ingest(self, op: Op) -> None:
        records = workload.generate_records(
            op.params["seed"], op.params["count"],
            min_day=op.params.get("min_day", workload.BASE_DAY),
            max_day=op.params.get("max_day",
                                  workload.BASE_DAY + workload.DAY_SPAN - 1),
        )
        partitions = self.config["num_partitions"]
        for record in records:
            partition = kafka_partition(record["memberId"], partitions)
            self.model.produced[partition].append(dict(record))
        self.cluster.ingest(TOPIC, records, key_column="memberId")

    def _op_consume(self, op: Op) -> None:
        self.cluster.process_realtime(op.params.get("ticks", 1))

    def _op_advance_time(self, op: Op) -> None:
        self.cluster.clock.advance(op.params["seconds"])

    def _op_upload_segment(self, op: Op) -> None:
        records = workload.generate_records(
            op.params["seed"], op.params["count"],
            min_day=op.params["min_day"], max_day=op.params["max_day"],
        )
        names = self.cluster.upload_records(LOGICAL_TABLE, records,
                                            rows_per_segment=10 ** 9)
        for name in names:
            self.model.offline_segments[name] = list(records)
        self._observe(f"uploaded {names}")

    def _op_replace_segment(self, op: Op) -> None:
        name = op.params["name"]
        if name not in self.model.offline_segments:
            return  # shrunk schedule removed the producing upload
        records = workload.generate_records(
            op.params["seed"], op.params["count"],
            min_day=op.params["min_day"], max_day=op.params["max_day"],
        )
        config = self.cluster.table_config(self.offline_table)
        builder = SegmentBuilder(name, self.offline_table, config.schema,
                                 config.segment_config)
        builder.add_all(records)
        self.cluster.leader_controller().replace_segment(
            self.offline_table, builder.build())
        self.model.offline_segments[name] = list(records)

    def _op_delete_segment(self, op: Op) -> None:
        name = op.params["name"]
        if name not in self.model.offline_segments:
            return
        self.cluster.leader_controller().delete_segment(
            self.offline_table, name)
        del self.model.offline_segments[name]

    def _op_rebalance(self, op: Op) -> None:
        table = op.params.get("table", self.offline_table)
        self.cluster.leader_controller().rebalance_table(table)

    def _op_cache_invalidate(self, op: Op) -> None:
        table = op.params.get("table", self.offline_table)
        self.cluster.helix.bump_epoch(table)

    def _op_crash_server(self, op: Op) -> None:
        instance = op.params["instance"]
        if instance not in self._live_servers or instance in self._crashed:
            return
        self.cluster.crash_server(instance)
        self._crashed.add(instance)

    def _op_recover_server(self, op: Op) -> None:
        instance = op.params["instance"]
        if instance not in self._live_servers:
            return
        try:
            self.cluster.server(instance).faults.recover()
        except ClusterError:
            return
        self._crashed.discard(instance)
        self._degraded.discard(instance)

    def _op_degrade_server(self, op: Op) -> None:
        instance = op.params["instance"]
        if instance not in self._live_servers or instance in self._crashed:
            return
        faults = self.cluster.server(instance).faults
        faults.extra_latency_s = op.params.get("latency_ms", 0) / 1000.0
        faults.error_rate = op.params.get("error_rate", 0.0)
        self._degraded.add(instance)

    def _op_kill_server(self, op: Op) -> None:
        instance = op.params["instance"]
        if instance not in self._live_servers:
            return
        self.cluster.kill_server(instance)
        self._live_servers.remove(instance)
        self._crashed.discard(instance)
        self._degraded.discard(instance)

    def _op_add_server(self, op: Op) -> None:
        server = self.cluster.add_server(op.params.get("instance"))
        self._live_servers.append(server.instance_id)

    def _op_kill_controller(self, op: Op) -> None:
        instance = op.params["instance"]
        if instance not in self._controllers:
            return
        self.cluster.kill_controller(instance)
        self._controllers.remove(instance)

    def _op_evict_residency(self, op: Op) -> None:
        """Memory pressure: drop one server's resident segment payloads.
        Results must be unaffected — the next query cold-reloads from
        the deep store (the residency-independence invariant)."""
        instance = op.params["instance"]
        try:
            server = self.cluster.server(instance)
        except ClusterError:
            return  # killed since the op was generated
        evicted = server.segment_cache.evict_all()
        self._observe(f"evicted {evicted} resident segments on {instance}")

    _HANDLERS: dict[str, Callable[["SimulationHarness", Op], None]] = {
        "query": _op_query,
        "approx_query": _op_approx_query,
        "ingest": _op_ingest,
        "consume": _op_consume,
        "advance_time": _op_advance_time,
        "upload_segment": _op_upload_segment,
        "replace_segment": _op_replace_segment,
        "delete_segment": _op_delete_segment,
        "rebalance": _op_rebalance,
        "cache_invalidate": _op_cache_invalidate,
        "crash_server": _op_crash_server,
        "recover_server": _op_recover_server,
        "degrade_server": _op_degrade_server,
        "kill_server": _op_kill_server,
        "add_server": _op_add_server,
        "kill_controller": _op_kill_controller,
        "evict_residency": _op_evict_residency,
    }

    # -- op generation (generate mode) ----------------------------------------

    def _generate(self, num_steps: int) -> Iterator[Op]:
        """Draw and record ``num_steps`` ops, each drawn only after the
        one before it ran (a maker reads the state it left)."""
        for __ in range(num_steps):
            op = None
            while op is None:
                op = self._draw_op()
            self.schedule.ops.append(op)
            yield op

    def _draw_op(self) -> Op | None:
        kinds = [kind for kind, __ in self.scenario.op_weights]
        weights = [weight for __, weight in self.scenario.op_weights]
        kind = self.rng.choices(kinds, weights=weights, k=1)[0]
        return getattr(self, f"_make_{kind}")()

    def _sub_seed(self) -> int:
        return self.rng.randrange(2 ** 32)

    def _pick(self, items: Sequence[str], at_least: int = 1) -> str | None:
        """One of ``items`` (None when there are fewer than
        ``at_least``)."""
        if len(items) < at_least:
            return None
        return items[self.rng.randrange(len(items))]

    def _instance_op(self, kind: str, candidates: Sequence[str],
                     at_least: int = 1) -> Op | None:
        instance = self._pick(candidates, at_least)
        if instance is None:
            return None
        return Op(kind, {"instance": instance})

    def _segment_window(self) -> dict[str, int]:
        """Rows for an offline segment: a seed, a count and a day range
        in the first half of the time axis."""
        start = workload.BASE_DAY + self.rng.randrange(workload.DAY_SPAN // 2)
        return {
            "seed": self._sub_seed(),
            "count": self.rng.randrange(20, 80),
            "min_day": start,
            "max_day": start + self.rng.randrange(1, 4),
        }

    def _pick_table(self, offline_share: float) -> str:
        if self.scenario.upsert_mode is not None:
            return self.realtime_table  # the only table
        return (self.offline_table if self.rng.random() < offline_share
                else self.realtime_table)

    def _healthy_servers(self) -> list[str]:
        return [instance for instance in self._live_servers
                if instance not in self._crashed]

    def _make_query(self) -> Op:
        return Op("query", {"seed": self._sub_seed()})

    def _make_approx_query(self) -> Op:
        return Op("approx_query", {"seed": self._sub_seed()})

    def _make_ingest(self) -> Op:
        return Op("ingest", {"seed": self._sub_seed(),
                             "count": self.rng.randrange(20, 120)})

    def _make_consume(self) -> Op:
        return Op("consume", {"ticks": self.rng.randrange(1, 4)})

    def _make_advance_time(self) -> Op:
        return Op("advance_time",
                  {"seconds": round(self.rng.uniform(0.05, 2.0), 3)})

    def _make_upload_segment(self) -> Op:
        return Op("upload_segment", self._segment_window())

    def _make_replace_segment(self) -> Op | None:
        name = self._pick(sorted(self.model.offline_segments))
        if name is None:
            return None
        return Op("replace_segment", {"name": name, **self._segment_window()})

    def _make_delete_segment(self) -> Op | None:
        # Two at least, to keep the time boundary defined.
        name = self._pick(sorted(self.model.offline_segments), at_least=2)
        if name is None:
            return None
        return Op("delete_segment", {"name": name})

    def _make_rebalance(self) -> Op:
        return Op("rebalance", {"table": self._pick_table(0.6)})

    def _make_cache_invalidate(self) -> Op:
        return Op("cache_invalidate", {"table": self._pick_table(0.5)})

    def _make_crash_server(self) -> Op | None:
        # Three at least, to keep a queryable quorum.
        return self._instance_op("crash_server", self._healthy_servers(),
                                 at_least=3)

    def _make_recover_server(self) -> Op | None:
        return self._instance_op("recover_server",
                                 sorted(self._crashed | self._degraded))

    def _make_degrade_server(self) -> Op | None:
        instance = self._pick(self._healthy_servers(), at_least=2)
        if instance is None:
            return None
        latencies, error_rates = self.scenario.degrade
        return Op("degrade_server", {
            "instance": instance,
            "latency_ms": self.rng.choice(latencies),
            "error_rate": self.rng.choice(error_rates),
        })

    def _make_kill_server(self) -> Op | None:
        if len(self._live_servers) <= self.config["replication"] + 1:
            return None
        return self._instance_op("kill_server", self._healthy_servers())

    def _make_add_server(self) -> Op:
        return Op("add_server", {})

    def _make_kill_controller(self) -> Op | None:
        return self._instance_op("kill_controller", self._controllers,
                                 at_least=2)

    def _make_evict_residency(self) -> Op | None:
        return self._instance_op("evict_residency", self._healthy_servers())

    # -- heal-and-verify epilogue ---------------------------------------------

    def _epilogue(self) -> None:
        self._observe("epilogue: heal all faults")
        for server in self.cluster.servers:
            server.faults.recover()
        self._crashed.clear()
        self._degraded.clear()
        if not self._guarded("epilogue", self._drain_and_converge):
            return

        self._check("convergence", check_convergence(self.cluster.helix))
        self._check_completion_safety()

        # Liveness / hybrid integrity: every produced row must be
        # visible once the cluster is healthy and drained.
        for partition, produced in sorted(self.model.produced.items()):
            determinate, offset = self._visible_offset(partition)
            if not determinate:
                self._violation(
                    "hybrid_integrity",
                    f"partition {partition}: replicas still disagree "
                    f"after heal+drain",
                )
            elif offset != len(produced):
                self._violation(
                    "hybrid_integrity",
                    f"partition {partition}: {len(produced)} rows "
                    f"produced but only {offset} visible after "
                    f"heal+drain (lost rows)",
                )
        if self.violations:
            return

        if self.scenario.health is not None:
            self._pump_heal_return()
            if self.violations:
                return

        # Final oracle battery over a healthy cluster. The approx
        # workload appends bound-checked approx queries so every seed
        # ends with the sketch surface verified against a drained,
        # fully visible table.
        battery_kinds = ["query"] * 8
        if self.scenario.approx:
            battery_kinds += ["approx_query"] * 6
        for index, kind in enumerate(battery_kinds):
            self._op = Op(kind, {
                "seed": (self.schedule.seed * 1_000_003 + index) % 2 ** 32,
            })
            self._guarded("battery query", self._HANDLERS[kind], self,
                          self._op)
            if self.violations:
                return

    def _drain_and_converge(self) -> None:
        self.cluster.drain_realtime(max_ticks=600)
        for resource in self.cluster.helix.resources():
            self.cluster.helix.converge(resource)

    def _pump_heal_return(self) -> None:
        """Healed servers must return to rotation.

        All faults were healed above, so probes now succeed and every
        broker's failure detector has to heal its ejections within a
        bounded number of probe cadences. Pump seeded query traffic
        (advancing the clock past the probe interval each round) until
        no live server remains ejected; flag ``heal_return`` if any is
        still out after the bound.
        """
        live = set(self._live_servers)

        def still_ejected() -> dict[str, list[str]]:
            remaining: dict[str, list[str]] = {}
            for broker in self.cluster.brokers:
                if broker.health is None:
                    continue
                stuck = sorted(broker.health.ejected_set() & live)
                if stuck:
                    remaining[broker.instance_id] = stuck
            return remaining

        for attempt in range(200):
            if not still_ejected():
                break
            self.cluster.clock.advance(self.scenario.health.probe_interval_s)
            pql = workload.random_query(
                random.Random(
                    (self.schedule.seed * 7_368_787 + attempt) % 2 ** 32
                ),
                LOGICAL_TABLE,
            )
            if not self._guarded("heal-return pump", self.cluster.execute,
                                 _with_options(pql, "skipCache=true")):
                return
        remaining = still_ejected()
        self._observe(f"epilogue: heal-return remaining={remaining}")
        if remaining:
            self._violation(
                "heal_return",
                f"servers still ejected after heal + probe pumping: "
                f"{remaining}",
            )
        self._check("ejection_discipline",
                    check_ejection_discipline(self.cluster.brokers))


def run_seed(seed: int, num_steps: int = 60,
             config: dict[str, Any] | None = None,
             stop_on_violation: bool = True) -> SimResult:
    """Generate and run a fresh schedule from ``seed``."""
    schedule = Schedule(seed=seed, config=dict(config or {}))
    harness = SimulationHarness(schedule,
                                stop_on_violation=stop_on_violation)
    return harness.generate_and_run(num_steps)


def run_schedule(schedule: Schedule,
                 stop_on_violation: bool = True) -> SimResult:
    """Replay a recorded schedule verbatim."""
    harness = SimulationHarness(schedule,
                                stop_on_violation=stop_on_violation)
    return harness.run()
