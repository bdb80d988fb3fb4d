"""Deterministic, seeded fault injection for servers.

The production systems this reproduction models (Pinot, and the
resilience follow-up work at LinkedIn) are validated by injecting
failures into live clusters: crashed servers, flaky networks,
stragglers. This module is the simulation-side equivalent — a
first-class fault model that any server-like object can be wrapped
with, replacing the old ad-hoc ``QueryFaults`` hooks.

Fault kinds:

``crashed``           the server is unreachable: every query raises
                      :class:`ServerUnreachableError` (what a dropped
                      TCP connection looks like to the broker);
``fail_next``         the next N queries return an error result;
``error_rate``        each query fails independently with this
                      probability (flaky server; seeded, deterministic);
``extra_latency_s``   *simulated* latency added to every query's
                      accounted elapsed time (no real sleep — a 5 s
                      straggler does not slow the test suite down);
``jitter_latency_s``  extra simulated latency drawn uniformly from
                      ``[0, jitter]`` per query (seeded);
``busy_work_s``       *real* wall-clock delay per query (used to
                      exercise measured-time deadlines);
``fail_commit_next``  the next N segment-commit attempts die mid-commit
                      (the committer crashes before reaching the
                      controller, §3.3.6 failure path).

All randomness comes from a per-injector ``random.Random(seed)``, so a
given seed and call sequence always produces the same fault schedule.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.engine.results import ServerResult
from repro.errors import ServerUnreachableError


@dataclass
class FaultDecision:
    """What the injector decided to do to one query."""

    #: Refuse the connection entirely (raise ServerUnreachableError).
    crash: bool = False
    #: Fail the sub-request with this error message.
    error: str | None = None
    #: Simulated latency charged to the query's elapsed time.
    latency_s: float = 0.0
    #: Real wall-clock delay executed inside the measured window.
    busy_work_s: float = 0.0


@dataclass
class FaultStats:
    """Counters of the faults an injector actually fired."""

    crashes: int = 0
    errors: int = 0
    delays: int = 0
    commit_failures: int = 0


@dataclass
class FaultInjector:
    """Configurable fault source for one server (deterministic, seeded)."""

    seed: int = 0
    crashed: bool = False
    fail_next: int = 0
    error_rate: float = 0.0
    extra_latency_s: float = 0.0
    jitter_latency_s: float = 0.0
    busy_work_s: float = 0.0
    fail_commit_next: int = 0
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # -- scenario helpers ---------------------------------------------------

    def crash(self) -> None:
        """Make the server unreachable until :meth:`recover`."""
        self.crashed = True

    def recover(self) -> None:
        """Clear every configured fault (the server is healthy again)."""
        self.crashed = False
        self.fail_next = 0
        self.error_rate = 0.0
        self.extra_latency_s = 0.0
        self.jitter_latency_s = 0.0
        self.busy_work_s = 0.0
        self.fail_commit_next = 0

    # -- decision points ----------------------------------------------------

    def before_query(self) -> FaultDecision:
        """Decide the fate of one incoming query."""
        if self.crashed:
            self.stats.crashes += 1
            return FaultDecision(crash=True)
        if self.fail_next > 0:
            self.fail_next -= 1
            self.stats.errors += 1
            return FaultDecision(error="injected failure")
        if self.error_rate and self._rng.random() < self.error_rate:
            self.stats.errors += 1
            return FaultDecision(error="injected flaky failure")
        latency = self.extra_latency_s
        if self.jitter_latency_s:
            latency += self._rng.uniform(0.0, self.jitter_latency_s)
        if latency or self.busy_work_s:
            self.stats.delays += 1
        return FaultDecision(latency_s=latency, busy_work_s=self.busy_work_s)

    def before_commit(self) -> bool:
        """True when the server should die mid-commit (§3.3.6)."""
        if self.fail_commit_next > 0:
            self.fail_commit_next -= 1
            self.stats.commit_failures += 1
            self.crashed = True
            return True
        return False


def run_with_faults(injector: FaultInjector, server_id: str, query,
                    run) -> ServerResult:
    """Execute ``run(deadline)`` under ``injector``'s decision and the
    query's ``OPTION(timeoutMs=...)`` budget.

    ``run`` receives an absolute ``time.perf_counter()`` deadline (or
    None) and returns a :class:`ServerResult`. The timeout is honored
    against *measured* execution time plus any injected simulated
    latency — a genuinely slow server times out just like a fault-slowed
    one.
    """
    decision = injector.before_query()
    if decision.crash:
        raise ServerUnreachableError(
            f"server {server_id!r} is unreachable (crash injected)"
        )
    if decision.error is not None:
        return ServerResult(server=server_id, error=decision.error)

    timeout_ms = query.options.get("timeoutMs")
    started = time.perf_counter()
    deadline = None
    if timeout_ms is not None:
        # Per-server budget: whatever the injected latency leaves over.
        budget_s = timeout_ms / 1e3 - decision.latency_s
        if budget_s <= 0:
            return ServerResult(
                server=server_id,
                error=f"timed out after {timeout_ms}ms",
                elapsed_ms=decision.latency_s * 1e3,
            )
        deadline = started + budget_s
    if decision.busy_work_s:
        time.sleep(decision.busy_work_s)

    result = run(deadline)
    elapsed_ms = ((time.perf_counter() - started)
                  + decision.latency_s) * 1e3
    result.elapsed_ms = elapsed_ms
    if timeout_ms is not None and elapsed_ms > timeout_ms:
        return ServerResult(
            server=server_id,
            error=f"timed out after {timeout_ms}ms",
            elapsed_ms=elapsed_ms,
        )
    return result


class FaultyServer:
    """Wrap any server-like object (anything with ``execute(query,
    table, segments)``) with a :class:`FaultInjector`.

    Unmatched attribute access is delegated to the wrapped server, so a
    ``FaultyServer`` can be registered anywhere a plain server is.
    """

    def __init__(self, inner, injector: FaultInjector | None = None,
                 seed: int = 0):
        self._inner = inner
        self.faults = injector if injector is not None else FaultInjector(seed)

    def execute(self, query, table, segment_names) -> ServerResult:
        return run_with_faults(
            self.faults, self._inner.instance_id, query,
            lambda deadline: self._inner.execute(query, table,
                                                 segment_names),
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)
