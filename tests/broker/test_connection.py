"""Unit tests for per-client connection state / output buffer model."""

from random import Random

import pytest

from repro.broker.commands import PublishCmd, SubscribeCmd
from repro.broker.config import BrokerConfig
from repro.broker.connection import Connection
from repro.broker.server import PubSubServer
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor


class _Client(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)

    def receive(self, message, src_id):
        pass


def _broker(sim, limit_bytes=1_000_000):
    """One server, one subscriber on ``ch`` draining at 1 kB/s, one publisher.

    The output buffer is filled by the broker's publish fan-out (the only
    writer), so these cases drive real publications: zero CPU cost and
    zero framing overhead make a ``size``-byte publication occupy the
    subscriber's buffer for exactly ``size / 1000`` seconds.
    """
    config = BrokerConfig(
        per_connection_bps=1000.0,
        output_buffer_limit_bytes=limit_bytes,
        per_message_overhead_bytes=0,
        cpu_per_publish_s=0.0,
        cpu_per_delivery_s=0.0,
    )
    net = Transport(sim, Random(0), lan_model=FixedLatency(0.0), wan_model=FixedLatency(0.0))
    server = PubSubServer(sim, "srv", config)
    net.register(server, config.actual_egress_bps)
    sub, pub = _Client(sim, "sub"), _Client(sim, "pub")
    net.register(sub)
    net.register(pub)
    sub.send("srv", SubscribeCmd("ch"), 64)
    sim.run_until(1.0)

    def publish(size):
        pub.send("srv", PublishCmd("ch", "x", size), size)
        sim.run_until(sim.now)  # zero latency, zero CPU: fans out this instant

    return server, server.connection("sub"), publish


class TestOutputBuffer:
    """The buffer model, filled the way production fills it: by a publish.

    Overflow kill and the no-kill slow flow are covered end to end by
    ``test_server.py::TestOutputBufferKill::test_overflow_kills_connection``
    and ``::test_slow_flow_does_not_kill``.
    """

    def test_starts_empty(self):
        conn = Connection("c1")
        assert conn.buffered_bytes(0.0) == 0

    def test_publish_fills_buffer(self, sim):
        __, conn, publish = _broker(sim)
        publish(100)
        assert conn.buffered_bytes(sim.now) == 100
        assert conn.buffered_bytes(sim.now + 0.05) == 100

    def test_buffer_drains_at_completion(self, sim):
        __, conn, publish = _broker(sim)
        publish(100)  # drains until +0.10
        publish(50)  # queued behind it: drains until +0.15
        now = sim.now
        assert conn.buffered_bytes(now + 0.12) == 50
        assert conn.buffered_bytes(now + 0.2) == 0

    def test_expiry_is_lazy_but_exact(self, sim):
        __, conn, publish = _broker(sim)
        for __ in range(10):
            publish(10)  # completions at +0.01, +0.02, ... +0.10
        assert conn.buffered_bytes(sim.now + 0.045) == 60

    def test_expired_entries_leave_before_the_limit_is_checked(self, sim):
        # 250 B limit: two 100 B deliveries fit, a third on top would not.
        # Once the first two drained, the next publish must see an empty
        # buffer -- occupancy is compared *after* expiry.
        server, conn, publish = _broker(sim, limit_bytes=250)
        publish(100)
        publish(100)
        sim.run_until(sim.now + 0.5)
        publish(100)
        assert server.killed_connections == 0
        assert conn.buffered_bytes(sim.now) == 100
        publish(100)
        publish(100)  # 300 B queued at one instant > 250 B
        assert server.killed_connections == 1
        assert not conn.alive

    def test_delivery_counters(self, sim):
        __, conn, publish = _broker(sim)
        publish(100)
        publish(200)
        assert conn.deliveries == 2
        assert conn.bytes_delivered == 300


class TestPerConnectionRate:
    def test_no_ceiling_returns_now(self):
        conn = Connection("c1", per_connection_bps=None)
        assert conn.connection_drain_completion(5.0, 1000) == 5.0

    def test_ceiling_imposes_serial_drain(self):
        conn = Connection("c1", per_connection_bps=1000.0)
        first = conn.connection_drain_completion(0.0, 500)
        second = conn.connection_drain_completion(0.0, 500)
        assert first == pytest.approx(0.5)
        assert second == pytest.approx(1.0)

    def test_idle_connection_resets(self):
        conn = Connection("c1", per_connection_bps=1000.0)
        conn.connection_drain_completion(0.0, 100)
        assert conn.connection_drain_completion(10.0, 100) == pytest.approx(10.1)


class TestKill:
    def test_kill_clears_state(self, sim):
        __, conn, publish = _broker(sim)
        publish(100)
        assert conn.channels == {"ch"} and conn.buffered_bytes(sim.now) == 100
        conn.kill()
        assert not conn.alive
        assert conn.channels == set()
        assert conn.buffered_bytes(0.0) == 0
