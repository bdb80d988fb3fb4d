"""Calibration with an injected clock: the machine's speed cancels, the
program's does not."""

import math

import calib
import measure
from workloads import Tally, query_block


class FakeMachine:
    """A clock that only moves when something 'runs' on it; everything
    that runs takes ``machine`` times longer than nominal."""

    KERNEL_NS = 1_000_000

    def __init__(self):
        self.now = 0
        self.machine = 1.0
        self.program = 1.0

    def clock(self) -> int:
        return self.now

    def read_kernel(self) -> float:
        elapsed = int(self.KERNEL_NS * self.machine)
        self.now += elapsed
        return float(elapsed)

    def execute(self, text: str):
        self.now += int(int(text) * self.machine * self.program)
        return _Response()


class _Response:
    partial = False
    rows = ()


class _Workload:
    tail_q = 0.9
    scale = 1.0


def _round(machine: FakeMachine, meter: calib.Meter) -> dict:
    costs = [1_000_000 + 10_000 * i for i in range(100)]
    samples = calib.Samples()
    tally = Tally()
    meter.reset_edge()
    for low in range(0, len(costs), 20):
        items = [(str(c), (), low + i)
                 for i, c in enumerate(costs[low:low + 20])]
        query_block(machine, items, meter, samples, tally)
    assert tally.failed == 0 and tally.attempted == 100
    return measure.query_values(_Workload(), [samples])


def _meter(machine: FakeMachine) -> calib.Meter:
    return calib.Meter(FakeMachine.KERNEL_NS, machine.read_kernel,
                       machine.clock)


def test_machine_slowdown_cancels():
    machine = FakeMachine()
    meter = _meter(machine)
    nominal = _round(machine, meter)
    machine.machine = 1.3
    slowed = _round(machine, meter)
    assert set(nominal) == {"latency_p50_ms", "latency_tail_ms",
                            "queries_per_s"}
    for name, value in nominal.items():
        assert math.isclose(slowed[name], value, rel_tol=1e-5), name
    assert math.isclose(meter.factors[-1], 1 / 1.3, rel_tol=1e-5)


def test_program_slowdown_shows():
    machine = FakeMachine()
    meter = _meter(machine)
    nominal = _round(machine, meter)
    machine.program = 1.3
    slowed = _round(machine, meter)
    for name in ("latency_p50_ms", "latency_tail_ms"):
        assert math.isclose(slowed[name], 1.3 * nominal[name],
                            rel_tol=1e-5), name
    assert math.isclose(slowed["queries_per_s"],
                        nominal["queries_per_s"] / 1.3, rel_tol=1e-5)


def test_raw_values_keep_the_machine():
    machine = FakeMachine()
    meter = _meter(machine)
    machine.machine = 1.3
    samples = calib.Samples()
    query_block(machine, [("1000000", (), 0)], meter, samples, Tally())
    assert samples.raw["execute"] == [1_300_000]
    assert math.isclose(samples.cal["execute"][0], 1_000_000, rel_tol=1e-5)


def test_a_failed_query_leaves_no_latency():
    machine = FakeMachine()

    def explode(text):
        raise RuntimeError("boom")

    machine.execute = explode
    samples = calib.Samples()
    tally = Tally()
    query_block(machine, [("1", (), 0), ("2", (), 1)], _meter(machine),
                samples, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "execute" not in samples.cal


def test_tail_percentile_keeps_ten_samples_beyond():
    for n, q in ((600, 0.98), (240, 0.95), (120, 0.90), (480, 0.95)):
        values = list(range(n))
        assert n - 1 - calib.percentile(values, q) >= 10


def test_the_kernel_is_deterministic_and_repro_free():
    assert calib.kernel() == calib.kernel() > 5000
    ticks = iter(range(0, 10**9, 1000))
    assert calib.read_kernel(lambda: next(ticks)) == 1000.0
    source = open(calib.__file__, encoding="utf-8").read()
    assert "import repro" not in source and "from repro" not in source


def _rounds(stalled) -> list[calib.Samples]:
    """Nine rounds of 50 slots costing 1000 + slot; ``stalled(round,
    slot)`` says which operations take 40 times as long."""
    rounds = []
    for index in range(9):
        samples = calib.Samples()
        for slot in range(50):
            cost = (1000 + slot) * (40.0 if stalled(index, slot) else 1.0)
            samples.add("execute", cost, cost, slot)
        rounds.append(samples)
    return rounds


def test_a_burst_in_one_round_moves_nothing():
    quiet = measure.query_values(_Workload(), _rounds(lambda r, s: False))
    burst = measure.query_values(
        _Workload(), _rounds(lambda r, s: (r, s) == (4, 7)))
    assert burst == quiet
    assert sorted(measure.typical_round(
        _rounds(lambda r, s: (r, s) == (4, 7)), "execute")) == [
        1000 + slot for slot in range(50)]


def test_a_stall_on_a_rotating_slot_moves_throughput():
    """A cost of the program's own that lands on another slot every
    round (a collection pause, a sweep every N queries) is invisible to
    the slot medians; ``queries_per_s`` counts every completed
    operation and must show it."""
    quiet = measure.query_values(_Workload(), _rounds(lambda r, s: False))
    stalled = measure.query_values(
        _Workload(), _rounds(lambda r, s: s == (7 * r) % 50))
    assert stalled["latency_p50_ms"] == quiet["latency_p50_ms"]
    assert stalled["latency_tail_ms"] == quiet["latency_tail_ms"]
    # One op in 50 takes 40x as long: the mean latency rises by ~78 %.
    slowdown = quiet["queries_per_s"] / stalled["queries_per_s"]
    assert 1.7 < slowdown < 1.9


def test_ingest_throughput_counts_every_step():
    rounds = []
    for index in range(9):
        samples = calib.Samples()
        for step in range(10):
            stall = 11.0 if step == index % 10 else 1.0
            samples.add("ingest", 1e6 * stall, 0.0, step)
        rounds.append(samples)
    # 10 steps x 250 rows in (9 + 11) ms, every round.
    assert math.isclose(measure.throughput(rounds, "ingest", 250),
                        2500 / 0.020)
