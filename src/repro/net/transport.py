"""The simulated RPC layer: links, endpoints, bounded queues, calls.

A :class:`Transport` connects named endpoints (servers, controllers)
over modelled links. A call is synchronous from the caller's point of
view, but every timing along the way is computed on the shared
:class:`~repro.net.clock.SimClock` virtual timeline:

```
depart --link latency/bandwidth--> arrive --queue wait--> start
      --service (measured + modelled)--> done --link latency--> complete
```

Callers that need concurrency semantics (a broker scattering one query
to many servers, a hedged duplicate issued mid-flight) pass an explicit
``depart_at`` so several calls share one departure instant; the
endpoint's bounded inbound queue then sees the burst and rejects the
overflow with :class:`~repro.errors.ServerBusyError` — backpressure the
caller can observe, count, and degrade around.

Payloads round-trip through :mod:`repro.net.codec` (serialization
boundary); ``codec=False`` builds a pass-through transport for parity
testing against direct method calls. A request argument wrapped in
:class:`~repro.net.codec.Shared` is encoded once for every message that
carries it; a pass-through transport hands the handler the value
itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import ClusterError, PinotError, ServerBusyError, \
    ServerUnreachableError
from repro.net.clock import SimClock
from repro.net.codec import Shared, decode, encode, payload_bytes
from repro.obs import propagation
from repro.obs.trace import SpanContext


@dataclass
class LinkModel:
    """Latency/jitter/bandwidth/loss model for one directed link."""

    #: Fixed one-way latency per message, in seconds.
    latency_s: float = 0.0
    #: Extra latency drawn uniformly from [0, jitter_s] per message.
    jitter_s: float = 0.0
    #: Serialized-bytes-per-second capacity; None means infinite.
    bandwidth_bytes_per_s: float | None = None
    #: Probability that a message is dropped (the caller sees the
    #: destination as unreachable — what packet loss looks like).
    drop_rate: float = 0.0

    def sample_latency(self, rng: random.Random, nbytes: int = 0) -> float:
        latency = self.latency_s
        if self.jitter_s:
            latency += rng.uniform(0.0, self.jitter_s)
        if self.bandwidth_bytes_per_s and nbytes:
            latency += nbytes / self.bandwidth_bytes_per_s
        return latency

    def drops(self, rng: random.Random) -> bool:
        return bool(self.drop_rate) and rng.random() < self.drop_rate

    @property
    def needs_sizes(self) -> bool:
        return bool(self.bandwidth_bytes_per_s)


@dataclass
class ServiceModel:
    """Modelled per-request service time at an endpoint, stacked on top
    of the measured real execution time of the handler."""

    base_s: float = 0.0
    jitter_s: float = 0.0

    def sample(self, rng: random.Random) -> float:
        service = self.base_s
        if self.jitter_s:
            service += rng.uniform(0.0, self.jitter_s)
        return service


@dataclass
class EndpointStats:
    """Counters for one endpoint's inbound queue."""

    calls: int = 0
    rejections: int = 0
    max_queue_depth: int = 0
    queue_wait_s: float = 0.0


class Endpoint:
    """One addressable service with a bounded inbound request queue.

    The queue is modelled, not threaded: it tracks the virtual
    completion times of admitted requests. A request arriving at ``t``
    first drains entries completed by ``t``; if the survivors fill the
    queue, the request is rejected (429-style) without any service
    work. Otherwise it starts once the backlog ahead of it drains —
    single-server FIFO semantics.
    """

    DEFAULT_CAPACITY = 128

    def __init__(self, address: str, handler,
                 queue_capacity: int = DEFAULT_CAPACITY,
                 service: ServiceModel | None = None):
        self.address = address
        self.handler = handler
        self.queue_capacity = queue_capacity
        self.service = service or ServiceModel()
        self.stats = EndpointStats()
        self._pending: list[float] = []  # completion times of admitted work

    def admit(self, arrival: float) -> float | None:
        """Admit a request arriving at ``arrival``; returns its virtual
        start time, or None when the bounded queue is full."""
        self._pending = [c for c in self._pending if c > arrival]
        depth = len(self._pending)
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        if depth >= self.queue_capacity:
            self.stats.rejections += 1
            return None
        self.stats.calls += 1
        start = max([arrival, *self._pending])
        self.stats.queue_wait_s += start - arrival
        return start

    def finish(self, completion: float) -> None:
        self._pending.append(completion)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)


@dataclass
class CallResult:
    """One RPC's outcome plus its virtual-timeline breakdown."""

    src: str
    dst: str
    method: str
    departed: float
    value: object = None
    #: The decoded remote (or transport-level) exception, if any.
    error: BaseException | None = None
    arrived: float = 0.0
    started: float = 0.0
    completed: float = 0.0
    link_s: float = 0.0
    queue_s: float = 0.0
    service_s: float = 0.0
    queue_depth: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    #: True when the destination endpoint rejected the request because
    #: its bounded inbound queue was full (ServerBusyError).
    rejected: bool = False
    #: True when the endpoint handler actually ran (false for
    #: unreachable/dropped/rejected requests).
    handled: bool = False
    #: Server-side spans collected while handling this call (present
    #: only when a sampled trace context was propagated and the
    #: response made it back).
    remote_spans: list = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.completed - self.departed

    def unwrap(self):
        if self.error is not None:
            raise self.error
        return self.value


@dataclass
class _Wire:
    """One encoded message (tree + blob side channel)."""

    tree: object
    blobs: list = field(default_factory=list)


@dataclass
class _HandlerFrame:
    """Virtual-time context of one in-flight handler invocation.

    ``cursor`` is the frame's nested-call departure instant: it starts
    at the handler's virtual service start and advances to each nested
    call's completion, so sequential sub-calls (a server fetching two
    cold segments) queue up on the virtual timeline. The accumulated
    ``cursor - start`` is added to the handler's service time — the
    caller of the outer RPC waits for the nested work.

    ``nested_real_s`` collects the real (perf_counter) seconds spent
    executing nested handlers, which the outer measurement subtracts so
    that real work is not billed twice (once as the nested call's
    service, once inside the outer handler's measured time).
    """

    start: float
    cursor: float
    nested_real_s: float = 0.0


class Transport:
    """The cluster's message fabric.

    ``codec=True`` (default) round-trips every payload through the
    JSON-safe codec. ``codec=False`` passes object references straight
    through — only for parity testing against direct calls.
    """

    def __init__(self, clock: SimClock | None = None, seed: int = 0,
                 codec: bool = True,
                 default_link: LinkModel | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.codec = codec
        self.default_link = default_link or LinkModel()
        self._rng = random.Random(seed)
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str | None, str], LinkModel] = {}
        #: Stack of in-flight handler invocations (nested RPCs).
        self._frames: list[_HandlerFrame] = []

    # -- topology -----------------------------------------------------------

    def register(self, address: str, handler,
                 queue_capacity: int = Endpoint.DEFAULT_CAPACITY,
                 service: ServiceModel | None = None) -> Endpoint:
        if address in self._endpoints:
            raise ClusterError(f"endpoint {address!r} already registered")
        endpoint = Endpoint(address, handler, queue_capacity, service)
        self._endpoints[address] = endpoint
        return endpoint

    def deregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def endpoint(self, address: str) -> Endpoint | None:
        return self._endpoints.get(address)

    def set_link(self, src: str | None, dst: str, model: LinkModel) -> None:
        """Set the model for the ``src -> dst`` link; ``src=None`` sets
        the inbound default for ``dst`` (any caller)."""
        self._links[(src, dst)] = model

    def link_between(self, src: str, dst: str) -> LinkModel:
        return (self._links.get((src, dst))
                or self._links.get((None, dst))
                or self.default_link)

    # -- calls --------------------------------------------------------------

    def request(self, src: str, dst: str, method: str, *args,
                depart_at: float | None = None,
                trace_ctx: SpanContext | None = None,
                **kwargs) -> CallResult:
        """Issue one call without advancing the shared clock.

        Never raises for modelled failures: transport-level errors
        (unreachable endpoint, dropped message, queue rejection) and
        handler-raised :class:`PinotError` subclasses land in
        ``CallResult.error``. The caller decides when virtual time
        advances (see :meth:`call` for the simple synchronous case).

        ``trace_ctx`` propagates a query trace across the serialization
        boundary: the context rides the request payload (the simulated
        form of a ``traceparent`` header), a span recorder is active
        while the handler runs, and the server-side spans ride the
        response payload back into ``CallResult.remote_spans``.
        """
        depart = depart_at if depart_at is not None else self.clock.now()
        result = CallResult(src=src, dst=dst, method=method, departed=depart)
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            result.error = ServerUnreachableError("server unreachable")
            result.arrived = result.started = result.completed = depart
            return result

        link = self.link_between(src, dst)
        if not self.codec:
            args = tuple(arg.value if type(arg) is Shared else arg
                         for arg in args)
        request_wire = self._pack((args, kwargs))
        ctx_wire = (self._pack(trace_ctx)
                    if trace_ctx is not None else None)
        if link.needs_sizes:
            result.request_bytes = payload_bytes(request_wire.tree,
                                                 request_wire.blobs)
            if ctx_wire is not None:
                result.request_bytes += payload_bytes(ctx_wire.tree)
        out_latency = link.sample_latency(self._rng, result.request_bytes)
        result.link_s += out_latency
        result.arrived = depart + out_latency
        if link.drops(self._rng):
            result.error = ServerUnreachableError(
                f"link {src} -> {dst} dropped the request"
            )
            result.started = result.completed = result.arrived
            return result

        start = endpoint.admit(result.arrived)
        result.queue_depth = endpoint.queue_depth
        if start is None:
            result.error = ServerBusyError(
                f"server {dst!r} rejected the request: inbound queue "
                f"full ({endpoint.queue_capacity} deep)"
            )
            result.rejected = True
            result.started = result.completed = result.arrived
            return result
        result.started = start
        result.queue_s = start - result.arrived

        call_args, call_kwargs = self._unpack(request_wire)
        decoded_ctx = (self._unpack(ctx_wire)
                       if ctx_wire is not None else None)
        recorder_active = (decoded_ctx is not None
                           and getattr(decoded_ctx, "sampled", False))
        if recorder_active:
            # Server-side spans attach to the propagated context the
            # way an RPC server parents spans under the inbound
            # traceparent header; anchored at the virtual service start.
            propagation.activate(decoded_ctx, start, component=dst)
        frame = _HandlerFrame(start=start, cursor=start)
        self._frames.append(frame)
        measured_start = time.perf_counter()
        value: object = None
        error: BaseException | None = None
        try:
            value = getattr(endpoint.handler, method)(*call_args,
                                                      **call_kwargs)
        except PinotError as exc:
            error = exc
        finally:
            self._frames.pop()
            remote_spans = (propagation.deactivate()
                            if recorder_active else [])
        result.handled = True
        measured = max(
            0.0,
            time.perf_counter() - measured_start - frame.nested_real_s,
        )
        # Nested sub-calls the handler made (subcall) happened *during*
        # service: their whole virtual duration extends it, so a cold
        # deep-store fetch inside a query handler delays this call's
        # completion — and the original caller visibly waits.
        surcharge = frame.cursor - frame.start
        service = measured + surcharge + endpoint.service.sample(self._rng)
        result.service_s = service
        done = start + service
        endpoint.finish(done)

        response_wire = self._pack(error if error is not None else value)
        spans_wire = (self._pack(remote_spans) if remote_spans else None)
        if link.needs_sizes:
            result.response_bytes = payload_bytes(response_wire.tree,
                                                  response_wire.blobs)
            if spans_wire is not None:
                result.response_bytes += payload_bytes(spans_wire.tree)
        back_latency = link.sample_latency(self._rng, result.response_bytes)
        result.link_s += back_latency
        result.completed = done + back_latency
        if link.drops(self._rng):
            result.error = ServerUnreachableError(
                f"link {dst} -> {src} dropped the response"
            )
            return result

        payload = self._unpack(response_wire)
        if isinstance(payload, BaseException):
            result.error = payload
        else:
            result.value = payload
        if spans_wire is not None:
            # Spans arrive only with a delivered response — a dropped
            # response loses them, exactly like lost telemetry.
            result.remote_spans = self._unpack(spans_wire)
        return result

    def call(self, src: str, dst: str, method: str, *args,
             depart_at: float | None = None, **kwargs):
        """Synchronous RPC: issue, advance the clock to the completion
        instant, raise the decoded error or return the decoded value."""
        result = self.request(src, dst, method, *args,
                              depart_at=depart_at, **kwargs)
        self.clock.advance_to(result.completed)
        return result.unwrap()

    def subcall(self, src: str, dst: str, method: str, *args,
                **kwargs) -> CallResult:
        """A blocking RPC issued from *inside* an endpoint handler.

        The nested call departs at the enclosing handler's virtual
        cursor and its full duration is folded into that handler's
        service time, so the outer call's completion — what the outer
        caller waits for — moves out by exactly the nested call's
        latency. This is how a server's cold deep-store fetch amplifies
        the broker-visible tail.

        Returns the :class:`CallResult` (callers wanting raise-or-value
        semantics call ``.unwrap()``); outside any handler it degrades
        to plain synchronous-call timing against the shared clock.
        """
        frame = self._frames[-1] if self._frames else None
        real_start = time.perf_counter()
        result = self.request(
            src, dst, method, *args,
            depart_at=frame.cursor if frame is not None else None,
            **kwargs,
        )
        if frame is not None:
            frame.cursor = max(frame.cursor, result.completed)
            frame.nested_real_s += time.perf_counter() - real_start
        else:
            self.clock.advance_to(result.completed)
        return result

    # -- codec --------------------------------------------------------------

    def _pack(self, payload) -> _Wire:
        if not self.codec:
            return _Wire(payload)
        blobs: list = []
        return _Wire(encode(payload, blobs), blobs)

    def _unpack(self, wire: _Wire):
        if not self.codec:
            return wire.tree
        return decode(wire.tree, wire.blobs)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-endpoint queue statistics (an ops /metrics view)."""
        return {
            address: {
                "calls": endpoint.stats.calls,
                "rejections": endpoint.stats.rejections,
                "max_queue_depth": endpoint.stats.max_queue_depth,
                "queue_wait_s": endpoint.stats.queue_wait_s,
            }
            for address, endpoint in self._endpoints.items()
        }
