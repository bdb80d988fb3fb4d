"""Schedules: the concrete, replayable op sequences the harness runs.

A schedule is born in one of two ways:

* **generated** — the harness draws ops from a seeded RNG while the
  cluster runs, resolving each op against live cluster state (which
  segment to delete, which server to crash). Every resolved op is
  recorded;
* **replayed** — a previously recorded (possibly shrunk) op list is
  executed verbatim.

Because the whole cluster runs on a manual virtual clock and every
random choice flows from the schedule seed, replaying a recorded
schedule reproduces the original run exactly: same routing, same fault
decisions, same invariant verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.common.records import from_plain, to_plain


@dataclass(frozen=True)
class Op:
    """One whole-cluster operation, fully resolved and serializable."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        # Sorted so the rendering (and the observation digest built
        # from it) is identical before and after a JSON round-trip.
        inner = ", ".join(f"{k}={v!r}"
                          for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass
class Schedule:
    """A seed plus the concrete op list it produced (or was given)."""

    seed: int
    ops: list[Op] = field(default_factory=list)
    #: Scenario knobs the harness was configured with, so a replay
    #: builds the identical cluster.
    config: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(to_plain(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return from_plain(cls, json.loads(text))

    def truncated(self, length: int) -> "Schedule":
        return Schedule(seed=self.seed, ops=list(self.ops[:length]),
                        config=dict(self.config))

    def without(self, start: int, stop: int) -> "Schedule":
        """A copy with ops[start:stop] removed (for shrinking)."""
        return Schedule(
            seed=self.seed,
            ops=list(self.ops[:start]) + list(self.ops[stop:]),
            config=dict(self.config),
        )

    def __len__(self) -> int:
        return len(self.ops)
