"""Hedged sub-requests: the tail-tolerance half of the transport.

The broker tracks per-table sub-request latencies in a sliding window.
When a scatter's straggler exceeds a percentile-derived budget, the
straggler's segment set is re-issued to a different replica (chosen by
``RoutingStrategy.reselect``); the first response to complete on the
virtual timeline wins and the loser is cancelled. This is the
"speculative retry" pattern production Pinot deploys against tail
amplification — one slow replica out of N otherwise caps every
fan-out query at the straggler's latency.

Only *winner* flight times (departure to completion, not time since
the scatter began) feed back into the tracker. Observing stragglers
would inflate the percentile until the budget exceeded every straggler
and hedging disabled itself; measuring winners from the scatter start
would fold the budget wait into every hedged sample, compounding the
budget by the multiplier each query — same outcome, one query at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import defaultdict, deque


@dataclass(frozen=True)
class HedgePolicy:
    """When to issue a hedged duplicate of a straggling sub-request.

    The budget for a table is ``multiplier *`` the ``percentile``-th
    latency observed over the sliding window; until ``min_samples``
    observations exist, ``initial_budget_ms`` applies.
    """

    percentile: float = 95.0
    multiplier: float = 1.5
    min_samples: int = 8
    initial_budget_ms: float = 25.0
    floor_ms: float = 1.0
    #: At most this many hedges per query, across all sub-requests.
    max_hedges_per_query: int = 4


class LatencyTracker:
    """Sliding-window percentile estimator, one window per table."""

    def __init__(self, policy: HedgePolicy | None = None,
                 window: int = 128):
        self.policy = policy or HedgePolicy()
        self.window = window
        self._samples: dict[str, deque[float]] = defaultdict(
            lambda: deque(maxlen=window)
        )

    def observe(self, table: str, duration_s: float) -> None:
        self._samples[table].append(duration_s)

    def percentile(self, table: str) -> float | None:
        """Nearest-rank percentile of the table's window, or None when
        fewer than ``min_samples`` observations exist."""
        samples = self._samples.get(table)
        if samples is None or len(samples) < self.policy.min_samples:
            return None
        ordered = sorted(samples)
        rank = math.ceil(self.policy.percentile / 100.0 * len(ordered))
        rank = min(max(rank, 1), len(ordered))
        return ordered[rank - 1]

    def budget_s(self, table: str) -> float:
        """Seconds a sub-request may run before it is hedged."""
        p = self.percentile(table)
        if p is None:
            budget = self.policy.initial_budget_ms / 1e3
        else:
            budget = p * self.policy.multiplier
        return max(budget, self.policy.floor_ms / 1e3)
