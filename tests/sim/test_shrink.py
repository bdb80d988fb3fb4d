"""Shrinker behavior, tested against a synthetic run function (fast)
and once against the real harness (slow path exercised by the sweep)."""

from repro.common.records import to_plain
from repro.sim.harness import SimResult
from repro.sim.invariants import Violation
from repro.sim.schedule import Op, Schedule
from repro.sim.shrink import shrink


def fake_run(schedule: Schedule) -> SimResult:
    """Violates 'query_oracle' iff a 'bad' op follows a 'setup' op."""
    armed = False
    for index, op in enumerate(schedule.ops):
        if op.kind == "setup":
            armed = True
        if op.kind == "bad" and armed:
            return SimResult(
                schedule=schedule,
                violations=[Violation("query_oracle", "boom", step=index,
                                      op=to_plain(op))],
                steps_executed=index + 1,
            )
    return SimResult(schedule=schedule,
                     steps_executed=len(schedule.ops))


def make_failing_result() -> SimResult:
    noise = [Op("noise", {"i": i}) for i in range(20)]
    ops = (noise[:7] + [Op("setup")] + noise[7:14]
           + [Op("bad")] + noise[14:])
    return fake_run(Schedule(seed=1, ops=ops))


class TestShrink:
    def test_reduces_to_minimal_pair(self):
        result = make_failing_result()
        assert not result.ok
        schedule, final = shrink(result, run_fn=fake_run)
        assert [op.kind for op in schedule.ops] == ["setup", "bad"]
        assert final.violations[0].invariant == "query_oracle"

    def test_truncates_past_failing_step(self):
        result = make_failing_result()
        schedule, __ = shrink(result, run_fn=fake_run)
        assert len(schedule) <= result.violations[0].step + 1

    def test_keeps_failures_of_same_invariant_only(self):
        """A candidate that fails a *different* invariant is not
        accepted as a reduction."""
        def run_two_modes(schedule: Schedule) -> SimResult:
            kinds = [op.kind for op in schedule.ops]
            if "bad" in kinds and "setup" in kinds:
                return fake_run(schedule)
            if "bad" in kinds:  # without setup: a different failure
                return SimResult(
                    schedule=schedule,
                    violations=[Violation("other_invariant", "nope",
                                          step=kinds.index("bad"))],
                    steps_executed=len(kinds),
                )
            return SimResult(schedule=schedule,
                             steps_executed=len(kinds))

        result = run_two_modes(make_failing_result().schedule)
        schedule, final = shrink(result, run_fn=run_two_modes)
        assert [op.kind for op in schedule.ops] == ["setup", "bad"]
        assert final.violations[0].invariant == "query_oracle"

    def test_passing_run_is_rejected(self):
        passing = fake_run(Schedule(seed=1, ops=[Op("noise")]))
        try:
            shrink(passing, run_fn=fake_run)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_respects_run_budget(self):
        calls = {"n": 0}

        def counting_run(schedule: Schedule) -> SimResult:
            calls["n"] += 1
            return fake_run(schedule)

        result = make_failing_result()
        shrink(result, run_fn=counting_run, max_runs=5)
        assert calls["n"] <= 5
