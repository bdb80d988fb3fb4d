"""Simulated RPC transport (`repro.net`).

The one substitution DESIGN.md leaves undocumented is the transport:
"method calls instead of RPC". This package makes the transport a
first-class, fault-modelable subsystem: every broker-server and
controller-server exchange travels as a serialized message over a
:class:`Transport` with per-link latency/jitter/bandwidth models,
per-endpoint bounded inbound queues with overload rejection, and a
shared :class:`SimClock` virtual clock that all latency accounting,
deadline math, retry backoff, and token-bucket refill consume.
"""

from repro.net.clock import SimClock
from repro.net.codec import Shared, decode, encode, json_roundtrip
from repro.net.hedging import HedgePolicy, LatencyTracker
from repro.net.transport import (
    CallResult,
    Endpoint,
    LinkModel,
    ServiceModel,
    Transport,
)

__all__ = [
    "CallResult",
    "Endpoint",
    "HedgePolicy",
    "LatencyTracker",
    "LinkModel",
    "ServiceModel",
    "Shared",
    "SimClock",
    "Transport",
    "decode",
    "encode",
    "json_roundtrip",
]
