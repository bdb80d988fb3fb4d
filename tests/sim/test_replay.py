"""Acceptance: replaying a recorded schedule is byte-identical.

The ISSUE's bar for the harness — same schedule in, same observation
stream (and therefore same invariant verdicts) out. The digest covers
every op applied, every query's result rows and partial flag, and every
violation, so equal digests mean observationally identical runs.
"""

import pytest

from repro.common.records import to_plain
from repro.sim.harness import SCENARIOS, run_schedule, run_seed

STEPS = 25

#: Generate and replay run one loop, so every scenario is checked.
#: ``production`` is left out: its failure detector scores measured
#: latencies, so a replay matches its generation only while the host
#: runs at the same speed (ROADMAP M).
#: The default scenario's cases keep their plain seed ids.
REPLAYS = [
    pytest.param(seed, name,
                 id=str(seed) if name == "default" else f"{seed}-{name}")
    for name in SCENARIOS if name != "production" for seed in (3, 11)
]


class TestByteIdenticalReplay:
    @pytest.mark.parametrize("seed, workload", REPLAYS)
    def test_generate_then_replay_matches_digest(self, seed, workload):
        generated = run_seed(seed, num_steps=STEPS,
                             config={"workload": workload})
        replayed = run_schedule(generated.schedule)
        assert replayed.digest == generated.digest
        assert replayed.observations == generated.observations
        assert [to_plain(v) for v in replayed.violations] == [
            to_plain(v) for v in generated.violations
        ]

    def test_replay_after_json_round_trip(self):
        """The artifact path: schedule -> JSON -> schedule -> replay."""
        from repro.sim.schedule import Schedule
        generated = run_seed(5, num_steps=STEPS)
        restored = Schedule.from_json(generated.schedule.to_json())
        replayed = run_schedule(restored)
        assert replayed.digest == generated.digest

    def test_different_seeds_diverge(self):
        first = run_seed(3, num_steps=STEPS)
        second = run_seed(4, num_steps=STEPS)
        assert first.digest != second.digest


class TestSweepStaysClean:
    def test_short_sweep_passes(self):
        """A handful of seeds end-to-end — the in-tree canary for the
        CI sweep. Any failure here comes with a replayable schedule."""
        for seed in range(3):
            result = run_seed(seed, num_steps=20)
            assert result.ok, (
                f"seed {seed} violated an invariant: "
                f"{result.violations[0]}\n"
                f"schedule:\n{result.schedule.to_json()}"
            )
