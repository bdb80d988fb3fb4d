"""Transport: links, bounded queues, backpressure, virtual timings."""

import pytest

from repro.errors import (ClusterError, PinotError, ServerBusyError,
                          ServerUnreachableError)
from repro.net import LinkModel, ServiceModel, Shared, SimClock, Transport

pytestmark = pytest.mark.net


class Echo:
    """A handler with a few representative methods."""

    def ping(self, value):
        return {"pong": value}

    def boom(self):
        raise PinotError("handler exploded")

    def crash(self):
        raise ValueError("not a PinotError")


@pytest.fixture
def clock():
    return SimClock(auto_advance=False)


@pytest.fixture
def transport(clock):
    t = Transport(clock, seed=1)
    t.register("svc", Echo())
    return t


class TestTopology:
    def test_duplicate_registration_rejected(self, transport):
        with pytest.raises(ClusterError, match="already registered"):
            transport.register("svc", Echo())

    def test_deregister_makes_endpoint_unreachable(self, transport):
        transport.deregister("svc")
        result = transport.request("a", "svc", "ping", 1)
        assert isinstance(result.error, ServerUnreachableError)
        assert str(result.error) == "server unreachable"

    def test_link_lookup_precedence(self, transport):
        specific = LinkModel(latency_s=1.0)
        inbound_default = LinkModel(latency_s=2.0)
        transport.set_link("a", "svc", specific)
        transport.set_link(None, "svc", inbound_default)
        assert transport.link_between("a", "svc") is specific
        assert transport.link_between("b", "svc") is inbound_default


class TestCalls:
    def test_call_returns_value_and_advances_clock(self, transport, clock):
        transport.set_link("a", "svc", LinkModel(latency_s=0.1))
        value = transport.call("a", "svc", "ping", 7)
        assert value == {"pong": 7}
        assert clock.now() >= 0.2  # both directions of the link

    def test_request_does_not_advance_clock(self, transport, clock):
        transport.set_link("a", "svc", LinkModel(latency_s=0.5))
        result = transport.request("a", "svc", "ping", 7)
        assert clock.now() == 0.0  # caller decides when time passes
        assert result.completed >= 1.0

    def test_handler_pinot_error_lands_in_result(self, transport):
        result = transport.request("a", "svc", "boom")
        assert isinstance(result.error, PinotError)
        assert "handler exploded" in str(result.error)
        with pytest.raises(PinotError):
            result.unwrap()

    def test_non_pinot_error_propagates_raw(self, transport):
        # Programming errors are bugs, not modelled failures: they
        # must surface loudly, not ride the error channel.
        with pytest.raises(ValueError):
            transport.request("a", "svc", "crash")

    def test_payload_crosses_serialization_boundary(self, transport):
        marker = {"rows": [(1, "a")], "tags": {"x"}}
        received = transport.call("a", "svc", "ping", marker)["pong"]
        assert received == marker
        assert received is not marker
        assert received["rows"][0] == (1, "a")  # tuples survive

    def test_codec_false_passes_references_through(self, clock):
        transport = Transport(clock, codec=False)
        transport.register("svc", Echo())
        marker = {"rows": [object()]}
        assert transport.call("a", "svc", "ping", marker)["pong"] is marker


class TestLinkModels:
    def test_fixed_latency_breakdown(self, transport):
        transport.set_link("a", "svc", LinkModel(latency_s=0.25))
        result = transport.request("a", "svc", "ping", 1, depart_at=10.0)
        assert result.departed == 10.0
        assert result.arrived == pytest.approx(10.25)
        assert result.link_s == pytest.approx(0.5)
        assert result.completed == pytest.approx(
            10.5 + result.service_s)
        assert result.duration_s == pytest.approx(
            0.5 + result.service_s)

    def test_jitter_varies_but_stays_bounded(self, transport):
        transport.set_link("a", "svc", LinkModel(latency_s=0.1,
                                                 jitter_s=0.05))
        latencies = set()
        for i in range(16):
            result = transport.request("a", "svc", "ping", i,
                                       depart_at=float(i))
            assert 0.2 <= result.link_s <= 0.3
            latencies.add(round(result.link_s, 9))
        assert len(latencies) > 1

    def test_bandwidth_charges_payload_size(self, transport):
        transport.set_link("a", "svc",
                           LinkModel(bandwidth_bytes_per_s=1000.0))
        small = transport.request("a", "svc", "ping", "x", depart_at=0.0)
        big = transport.request("a", "svc", "ping", "y" * 5000,
                                depart_at=0.0)
        assert big.request_bytes > small.request_bytes
        assert big.link_s > small.link_s

    @pytest.mark.parametrize("codec", [True, False])
    def test_a_shared_argument_arrives_as_its_value(self, clock, codec):
        """Every message carrying a ``Shared`` hands the handler the
        wrapped value: a fresh copy through the codec, the object itself
        through a pass-through transport. Sizes count it every time."""
        transport = Transport(clock, codec=codec)
        transport.register("svc", Echo())
        transport.set_link("a", "svc",
                           LinkModel(bandwidth_bytes_per_s=1000.0))
        value = {"rows": list(range(50))}
        shared = Shared(value)
        first, second = (transport.request("a", "svc", "ping", shared,
                                           depart_at=0.0)
                         for __ in range(2))
        for result in (first, second):
            assert result.value == {"pong": value}
            assert (result.value["pong"] is value) is not codec
        assert first.request_bytes == second.request_bytes
        if codec:
            plain = transport.request("a", "svc", "ping", value,
                                      depart_at=0.0)
            assert first.request_bytes == plain.request_bytes > 0

    def test_lossy_link_drops_as_unreachable(self, clock):
        transport = Transport(clock, seed=3)
        transport.register("svc", Echo())
        transport.set_link("a", "svc", LinkModel(drop_rate=0.5))
        outcomes = [transport.request("a", "svc", "ping", i,
                                      depart_at=float(i))
                    for i in range(40)]
        dropped = [r for r in outcomes if r.error is not None]
        delivered = [r for r in outcomes if r.error is None]
        assert dropped and delivered
        assert all(isinstance(r.error, ServerUnreachableError)
                   for r in dropped)


class TestBoundedQueue:
    def test_burst_queues_then_rejects(self, clock):
        transport = Transport(clock)
        transport.register("svc", Echo(), queue_capacity=2,
                           service=ServiceModel(base_s=1.0))
        r1 = transport.request("a", "svc", "ping", 1, depart_at=0.0)
        r2 = transport.request("a", "svc", "ping", 2, depart_at=0.0)
        r3 = transport.request("a", "svc", "ping", 3, depart_at=0.0)
        assert r1.error is None and r1.queue_s == 0.0
        assert r2.error is None and r2.queue_s >= 1.0  # waited for r1
        assert isinstance(r3.error, ServerBusyError)
        assert r3.rejected
        assert "inbound queue full" in str(r3.error)
        # Rejection costs no service work.
        assert r3.service_s == 0.0

    def test_queue_drains_with_virtual_time(self, clock):
        transport = Transport(clock)
        transport.register("svc", Echo(), queue_capacity=2,
                           service=ServiceModel(base_s=1.0))
        for i in range(2):
            transport.request("a", "svc", "ping", i, depart_at=0.0)
        late = transport.request("a", "svc", "ping", 9, depart_at=10.0)
        assert late.error is None
        assert late.queue_s == 0.0  # backlog completed long before

    def test_stats_reflect_traffic(self, clock):
        transport = Transport(clock)
        transport.register("svc", Echo(), queue_capacity=1,
                           service=ServiceModel(base_s=1.0))
        transport.request("a", "svc", "ping", 1, depart_at=0.0)
        transport.request("a", "svc", "ping", 2, depart_at=0.0)
        stats = transport.stats()["svc"]
        assert stats["calls"] == 1
        assert stats["rejections"] == 1
        assert stats["max_queue_depth"] == 1


class TestServiceModel:
    def test_modelled_service_time_stacks_on_measured(self, clock):
        transport = Transport(clock)
        transport.register("svc", Echo(),
                           service=ServiceModel(base_s=0.2))
        result = transport.request("a", "svc", "ping", 1)
        assert result.service_s >= 0.2
        assert result.completed >= 0.2
