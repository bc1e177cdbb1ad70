"""Unit tests for per-client connection state / output buffer model."""

from random import Random

import pytest

from repro.broker.commands import Delivery, PublishCmd, SubscribeCmd
from repro.broker.config import BrokerConfig
from repro.broker.connection import Connection
from repro.broker.server import PubSubServer
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor


class _Client(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)
        self.arrivals = []

    def receive(self, message, src_id):
        if isinstance(message, Delivery):
            self.arrivals.append(self.sim.now)


def _broker(sim, limit_bytes=1_000_000, rate=1000.0):
    """One server, one subscriber on ``ch`` draining at ``rate`` B/s, one
    publisher.

    The output buffer is filled by the broker's publish fan-out (the only
    writer), so these cases drive real publications: zero CPU cost, zero
    latency and zero framing overhead make a ``size``-byte publication
    occupy the subscriber's buffer for exactly ``size / rate`` seconds,
    and arrive when that drain completes.
    """
    config = BrokerConfig(
        per_connection_bps=rate,
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
    """The per-connection drain clock, advanced by the broker's fan-out."""

    def test_no_ceiling_returns_now(self, sim):
        # No ceiling: the delivery completes when the shared NIC sends it.
        server, __, publish = _broker(sim, rate=None)
        now = sim.now
        publish(1000)
        sim.run_until(5.0)
        nic_completion = now + 1000 / server.config.actual_egress_bps
        assert server.transport.actor("sub").arrivals == [pytest.approx(nic_completion)]

    def test_ceiling_imposes_serial_drain(self, sim):
        server, __, publish = _broker(sim)
        now = sim.now
        publish(500)
        publish(500)  # same instant: drains after the first, 0.5 s later
        sim.run_until(5.0)
        arrivals = server.transport.actor("sub").arrivals
        assert arrivals == [pytest.approx(now + 0.5), pytest.approx(now + 1.0)]

    def test_idle_connection_resets(self, sim):
        server, __, publish = _broker(sim)
        publish(100)
        sim.run_until(10.0)
        publish(100)  # the clock restarts at now, not at the last completion
        sim.run_until(15.0)
        arrivals = server.transport.actor("sub").arrivals
        assert arrivals == [pytest.approx(1.1), pytest.approx(10.1)]

    def test_killed_and_resubscribed_client_starts_on_a_fresh_clock(self, sim):
        # 250 B limit: three 100 B deliveries at one instant overflow it.
        # The dead connection's clock had run to +0.3; the connection the
        # resubscribe creates drains its first delivery in 0.1 s from now.
        server, conn, publish = _broker(sim, limit_bytes=250)
        now = sim.now
        for __ in range(3):
            publish(100)
        assert server.killed_connections == 1 and not conn.alive
        server.transport.actor("sub").send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(now)
        fresh = server.connection("sub")
        assert fresh is not conn and fresh.alive
        publish(100)
        assert fresh.buffered_bytes(now + 0.05) == 100
        assert fresh.buffered_bytes(now + 0.1) == 0


class TestKill:
    def test_kill_clears_state(self, sim):
        __, conn, publish = _broker(sim)
        publish(100)
        assert conn.channels == {"ch"} and conn.buffered_bytes(sim.now) == 100
        conn.kill()
        assert not conn.alive
        assert conn.channels == set()
        assert conn.buffered_bytes(0.0) == 0
