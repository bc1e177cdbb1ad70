"""Unit tests for the Redis-like pub/sub server."""

from random import Random
import pytest

from repro.broker.commands import (
    ConnectionClosed,
    Delivery,
    PublishCmd,
    SubscribeCmd,
    UnsubscribeCmd,
)
from repro.broker.config import BrokerConfig
from repro.broker.server import PubSubServer
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor


class FakeClient(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)
        self.received = []

    def receive(self, message, src_id):
        self.received.append((self.sim.now, message))

    def deliveries(self):
        return [m for __, m in self.received if isinstance(m, Delivery)]


def build(sim, rng: Random, config=None):
    net = Transport(sim, rng, lan_model=FixedLatency(0.0005), wan_model=FixedLatency(0.01))
    config = config or BrokerConfig()
    server = PubSubServer(sim, "srv", config)
    net.register(server, config.actual_egress_bps)
    clients = [FakeClient(sim, f"c{i}") for i in range(4)]
    for c in clients:
        net.register(c)
    return net, server, clients


class TestSubscriptions:
    def test_subscribe_adds_to_channel(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        clients[0].send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        assert server.subscriber_count("news") == 1
        assert server.is_subscribed("news", "c0")

    def test_unsubscribe_removes(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        clients[0].send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[0].send("srv", UnsubscribeCmd("news"), 64)
        sim.run_until(2.0)
        assert server.subscriber_count("news") == 0
        assert "news" not in server.channels()

    def test_subscribe_listener_sees_plan_version(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        seen = []
        server.add_subscribe_listener(lambda ch, cid, v: seen.append((ch, cid, v)))
        clients[0].send("srv", SubscribeCmd("news", plan_version=7), 64)
        sim.run_until(1.0)
        assert seen == [("news", "c0", 7)]

    def test_unsubscribe_listener(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        seen = []
        server.add_unsubscribe_listener(lambda ch, cid: seen.append((ch, cid)))
        clients[0].send("srv", SubscribeCmd("news"), 64)
        clients[0].send("srv", UnsubscribeCmd("news"), 64)
        sim.run_until(1.0)
        assert seen == [("news", "c0")]

    def test_disconnect_clears_all_subscriptions(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        clients[0].send("srv", SubscribeCmd("a"), 64)
        clients[0].send("srv", SubscribeCmd("b"), 64)
        sim.run_until(1.0)
        server.disconnect("c0")
        assert server.subscriber_count("a") == 0
        assert server.subscriber_count("b") == 0


class TestPublish:
    def test_delivers_to_all_subscribers(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        for c in clients[:3]:
            c.send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[3].send("srv", PublishCmd("news", "flash", 100), 100)
        sim.run_until(2.0)
        for c in clients[:3]:
            assert len(c.deliveries()) == 1
            assert c.deliveries()[0].payload == "flash"
        assert clients[3].deliveries() == []

    def test_publisher_also_receives_if_subscribed(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        clients[0].send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[0].send("srv", PublishCmd("news", "own", 100), 100)
        sim.run_until(2.0)
        assert len(clients[0].deliveries()) == 1

    def test_no_subscribers_is_fine(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        clients[0].send("srv", PublishCmd("empty", "void", 100), 100)
        sim.run_until(1.0)
        assert server.publish_count == 1
        assert server.delivery_count == 0

    def test_cpu_cost_delays_fanout(self, sim, rng: Random):
        config = BrokerConfig(cpu_per_publish_s=0.010, cpu_per_delivery_s=0.005)
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        clients[1].send("srv", PublishCmd("ch", "x", 100), 100)
        sim.run_until(2.0)
        arrival = clients[0].received[-1][0]
        # publish arrives at 1+0.01 WAN, +0.015 CPU, +~0 NIC, +0.01 WAN out
        assert arrival == pytest.approx(1.035, abs=1e-3)

    def test_cpu_queue_serializes_bursts(self, sim, rng: Random):
        config = BrokerConfig(cpu_per_publish_s=0.010, cpu_per_delivery_s=0.0)
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        for __ in range(5):
            clients[1].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.run_until(3.0)
        times = [t for t, m in clients[0].received if isinstance(m, Delivery)]
        gaps = [round(b - a, 6) for a, b in zip(times, times[1:])]
        assert gaps == [0.01] * 4

    # Commands take effect in arrival order, as on Redis's single thread: a
    # PUBLISH arrives at 1.01 and holds the CPU until 1.02; the SUBSCRIBE or
    # UNSUBSCRIBE below arrives at 1.015, while it is still being processed.
    def test_subscribe_behind_a_busy_publish_misses_it(self, sim, rng: Random):
        config = BrokerConfig(cpu_per_publish_s=0.010, cpu_per_delivery_s=0.0)
        net, server, clients = build(sim, rng, config)
        sim.run_until(1.0)
        clients[1].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.schedule_at(1.005, clients[0].send, "srv", SubscribeCmd("ch"), 64)
        sim.run_until(2.0)
        assert server.is_subscribed("ch", "c0")
        assert clients[0].deliveries() == []

    def test_unsubscribe_behind_a_busy_publish_still_receives_it(self, sim, rng: Random):
        config = BrokerConfig(cpu_per_publish_s=0.010, cpu_per_delivery_s=0.0)
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        clients[1].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.schedule_at(1.005, clients[0].send, "srv", UnsubscribeCmd("ch"), 64)
        sim.run_until(2.0)
        assert not server.is_subscribed("ch", "c0")
        assert [d.payload for d in clients[0].deliveries()] == ["x"]

    def test_publish_schedules_its_deliveries_on_arrival(self, sim, rng: Random):
        config = BrokerConfig(cpu_per_publish_s=0.010, cpu_per_delivery_s=0.0)
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        arrivals, departures = [], []
        receive, send_fanout = server.receive, net.send_fanout

        def recording_receive(message, src_id):
            if isinstance(message, PublishCmd):
                arrivals.append(sim.events_processed)
            receive(message, src_id)

        def recording_send_fanout(*args, **kwargs):
            departures.append(sim.events_processed)
            return send_fanout(*args, **kwargs)

        server.receive = recording_receive
        net.send_fanout = recording_send_fanout
        clients[1].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.run_until(2.0)
        assert len(clients[0].deliveries()) == 1
        assert arrivals == departures and len(arrivals) == 1

    def test_cpu_completion_starts_the_nic_clock(self, sim, rng: Random):
        # No drain clock: the NIC alone holds the delivery until the CPU is done.
        config = BrokerConfig(
            cpu_per_publish_s=0.010, cpu_per_delivery_s=0.0, per_connection_bps=None
        )
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        clients[1].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.run_until(2.0)
        # arrives at 1.01, CPU until 1.02, ~0 on the NIC, 0.01 WAN out
        assert clients[0].received[-1][0] == pytest.approx(1.03, abs=1e-4)

    def test_cpu_completion_starts_the_drain_clock(self, sim, rng: Random):
        config = BrokerConfig(
            cpu_per_publish_s=0.010,
            cpu_per_delivery_s=0.0,
            per_connection_bps=1000.0,
            per_message_overhead_bytes=0,
        )
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        clients[1].send("srv", PublishCmd("ch", "x", 100), 100)
        sim.run_until(2.0)
        # arrives at 1.01, CPU until 1.02, 0.1 s to drain 100 B at 1 KB/s,
        # 0.01 WAN out
        assert clients[0].received[-1][0] == pytest.approx(1.13, abs=1e-4)

    def test_observer_sees_every_publication(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        seen = []
        server.add_observer(lambda ch, pid, payload, size: seen.append((ch, pid, payload)))
        clients[0].send("srv", PublishCmd("a", "x", 10), 10)
        clients[1].send("srv", PublishCmd("b", "y", 10), 10)
        sim.run_until(1.0)
        assert sorted(seen) == [("a", "c0", "x"), ("b", "c1", "y")]

    def test_local_subscriber_receives_without_network(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        seen = []
        server.add_observer(lambda *a: seen.append(a))
        clients[0].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.run_until(1.0)
        assert len(seen) == 1
        # loopback must not consume NIC egress
        assert net.port("srv").total_bytes == 0

    def test_channel_stats_count_each_publications_fanout(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        for c in clients[:2]:
            c.send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        clients[3].send("srv", PublishCmd("ch", "x", 10), 10)
        sim.run_until(2.0)
        wire_size = 10 + server.config.per_message_overhead_bytes
        assert server.drain_channel_stats() == {"ch": [1, {"c3"}, 2, 2 * wire_size]}

    def test_unknown_message_type_raises(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        with pytest.raises(TypeError):
            server.receive(object(), "c0")


class TestOutputBufferKill:
    def test_overflow_kills_connection(self, sim, rng: Random):
        config = BrokerConfig(
            per_connection_bps=1000.0,  # 1 KB/s drain
            output_buffer_limit_bytes=2000,
            per_message_overhead_bytes=0,
        )
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("flood"), 64)
        sim.run_until(1.0)
        # 10 messages x 500 B = 5 KB queued almost instantly > 2 KB limit
        for __ in range(10):
            clients[1].send("srv", PublishCmd("flood", "x", 500), 500)
        sim.run_until(3.0)
        assert server.killed_connections == 1
        assert server.subscriber_count("flood") == 0
        closed = [m for __, m in clients[0].received if isinstance(m, ConnectionClosed)]
        assert closed and closed[0].reason == "output-buffer-overflow"

    def test_buffer_expires_what_left_before_the_cpu_finished(self, sim, rng: Random):
        # "a" arrives at 1.01 and leaves the NIC at ~1.0202.  "b" arrives at
        # 1.015 but waits on the CPU until 1.03, when "a" is gone: the buffer
        # holds one 1000 B entry, not two, and the 1500 B limit is not hit.
        config = BrokerConfig(
            cpu_per_publish_s=0.010,
            cpu_per_delivery_s=0.0,
            per_connection_bps=None,
            per_message_overhead_bytes=0,
            output_buffer_limit_bytes=1500,
        )
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        clients[1].send("srv", PublishCmd("ch", "a", 1000), 1000)
        sim.schedule_at(1.005, clients[2].send, "srv", PublishCmd("ch", "b", 1000), 1000)
        sim.run_until(2.0)
        assert server.killed_connections == 0
        assert [d.payload for d in clients[0].deliveries()] == ["a", "b"]

    def test_slow_flow_does_not_kill(self, sim, rng: Random):
        config = BrokerConfig(per_connection_bps=100_000.0, output_buffer_limit_bytes=10_000)
        net, server, clients = build(sim, rng, config)
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        for i in range(10):
            sim.schedule(i * 0.1, clients[1].send, "srv", PublishCmd("ch", "x", 100), 100)
        sim.run_until(5.0)
        assert server.killed_connections == 0
        assert len(clients[0].deliveries()) == 10

    def test_close_all_connections_notifies_everyone(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        for c in clients[:3]:
            c.send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(1.0)
        server.close_all_connections()
        sim.run_until(2.0)
        for c in clients[:3]:
            assert any(isinstance(m, ConnectionClosed) for __, m in c.received)
        assert server.channels() == []
