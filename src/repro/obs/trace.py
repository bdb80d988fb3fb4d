"""Distributed query tracing on the simulation's virtual timeline.

The operational story of the paper (§5-6: debugging tail latency across
brokers, servers, and the completion protocol) needs *per-query*
visibility, not just aggregate counters: which replica a hedged
sub-request actually won on, which segment dominated execution, where a
partial response lost its rows. This module is the trace model:

* a :class:`SpanContext` is the propagated identity of a trace — it
  crosses the ``repro.net`` codec boundary inside the tagged payload,
  exactly like a W3C ``traceparent`` header crosses HTTP;
* a :class:`Span` is one timed operation on the shared
  :class:`~repro.net.clock.SimClock` timeline (broker stages, one RPC's
  link/queue/service legs, one segment's execution);
* a :class:`Trace` is the flat span set of one query, rendered as a
  tree in the broker response and by the Chrome exporter;
* a :class:`Tracer` decides sampling and owns the finished-trace ring
  plus the slow-query log.

Spans live on the virtual clock, so a trace of a simulated 5-second
straggler shows 5 seconds without the test suite sleeping for them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.obs.slowlog import SlowQueryLog

#: Span status values. ``cancelled`` marks the losing side of a hedged
#: pair — present in the tree for visibility, excluded from accounting.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CANCELLED = "cancelled"


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity of a trace: what would travel in an HTTP
    header travels here through the transport's tagged payload."""

    trace_id: str
    #: The span the receiving side should parent its spans under.
    span_id: str
    sampled: bool = True


@dataclass
class Span:
    """One timed operation within a trace (virtual-clock seconds)."""

    name: str
    span_id: str
    parent_id: str | None
    trace_id: str
    start_s: float
    end_s: float | None = None
    status: str = STATUS_OK
    #: The component that produced the span (broker-0, server-2, ...).
    component: str = ""
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        if self.end_s is None:
            return 0.0
        return max(0.0, self.end_s - self.start_s) * 1e3

    def set_error(self, message: str, **attrs: Any) -> None:
        self.status = STATUS_ERROR
        self.attributes["error"] = message
        self.attributes.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self.start_s * 1e3,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "component": self.component,
            "attributes": dict(self.attributes),
        }


class Trace:
    """The span set of one query, flat internally, a tree externally."""

    def __init__(self, trace_id: str, name: str, start_s: float,
                 component: str = "", **attrs: Any):
        self.trace_id = trace_id
        self._next_id = 0
        self.root = Span(
            name=name, span_id=self.allocate_id(), parent_id=None,
            trace_id=trace_id, start_s=start_s, component=component,
            attributes=dict(attrs),
        )
        self.spans: list[Span] = [self.root]

    # -- span lifecycle -----------------------------------------------------

    def allocate_id(self) -> str:
        """Reserve a span id before the span's timings are known — used
        to hand a server a parent id ahead of the RPC completing."""
        self._next_id += 1
        return f"{self.trace_id}.{self._next_id}"

    def add_span(self, name: str, parent: Span | str | None,
                 start_s: float, end_s: float | None,
                 span_id: str | None = None, status: str = STATUS_OK,
                 component: str = "", **attrs: Any) -> Span:
        """Record a span whose boundaries are already known (the usual
        case: broker stage instants and RPC timeline legs are computed
        before the span is written)."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(
            name=name, span_id=span_id or self.allocate_id(),
            parent_id=parent_id if parent_id is not None
            else self.root.span_id,
            trace_id=self.trace_id, start_s=start_s, end_s=end_s,
            status=status, component=component, attributes=dict(attrs),
        )
        self.spans.append(span)
        return span

    def extend(self, spans: list[Span]) -> None:
        """Graft remote (server-side) spans into this trace. Their
        parent ids were assigned by propagation, so they attach to the
        right RPC's execute span without renumbering."""
        for span in spans:
            span.trace_id = self.trace_id
            self.spans.append(span)

    def finish(self, end_s: float, status: str = STATUS_OK) -> None:
        self.root.end_s = end_s
        self.root.status = status

    # -- views --------------------------------------------------------------

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def to_dict(self) -> dict[str, Any]:
        """The nested span tree shipped under ``BrokerResponse.trace``.

        Spans whose parent is unknown (e.g. a remote span whose RPC
        never produced its broker-side parent) attach to the root so
        nothing silently disappears from the tree.
        """
        ids = {span.span_id for span in self.spans}
        nodes: dict[str, dict[str, Any]] = {}
        for span in self.spans:
            node = span.to_dict()
            node["children"] = []
            nodes[span.span_id] = node
        root = nodes[self.root.span_id]
        for span in self.spans:
            if span.span_id == self.root.span_id:
                continue
            parent = span.parent_id
            if parent is None or parent not in ids:
                root["children"].append(nodes[span.span_id])
            else:
                nodes[parent]["children"].append(nodes[span.span_id])
        return root


class Tracer:
    """Creates and retains traces for one broker.

    ``sample_rate`` controls probabilistic sampling (seeded, so a run
    is reproducible); ``OPTION(trace=true)`` forces a trace regardless.
    With sampling off and no force, :meth:`start_trace` returns None
    and the query path does no tracing work at all — the overhead
    budget for untraced traffic is a few ``is None`` checks.
    """

    #: Finished traces retained for inspection (ring buffer).
    FINISHED_LIMIT = 256

    def __init__(self, clock=None, sample_rate: float = 0.0,
                 seed: int = 0, component: str = "",
                 slow_log: SlowQueryLog | None = None):
        self.clock = clock
        self.sample_rate = sample_rate
        self.component = component
        self._rng = random.Random(seed)
        self._next_trace = 0
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()
        self.finished: deque[Trace] = deque(maxlen=self.FINISHED_LIMIT)
        self.traces_started = 0
        self.traces_sampled_out = 0

    def start_trace(self, name: str, at: float | None = None,
                    force: bool = False, **attrs: Any) -> Trace | None:
        """Begin a trace, or return None when sampling says no."""
        if not force:
            if self.sample_rate <= 0.0:
                self.traces_sampled_out += 1
                return None
            if (self.sample_rate < 1.0
                    and self._rng.random() >= self.sample_rate):
                self.traces_sampled_out += 1
                return None
        self._next_trace += 1
        self.traces_started += 1
        trace_id = f"{self.component or 'trace'}-{self._next_trace:06d}"
        start = at if at is not None else (
            self.clock.now() if self.clock is not None else 0.0
        )
        return Trace(trace_id, name, start, component=self.component,
                     **attrs)

    def finish_trace(self, trace: Trace, at: float | None = None,
                     status: str = STATUS_OK) -> None:
        """Close the trace's root span and retain it (ring + slow log)."""
        end = at if at is not None else (
            self.clock.now() if self.clock is not None else trace.root.start_s
        )
        trace.finish(end, status)
        self.finished.append(trace)
        self.slow_log.record(trace)
