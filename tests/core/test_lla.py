"""Tests for the Local Load Analyzer."""

from random import Random
import pytest

from repro.broker.commands import PublishCmd, SubscribeCmd
from repro.broker.config import BrokerConfig
from repro.broker.server import PubSubServer
from repro.core.lla import LocalLoadAnalyzer
from repro.core.messages import LoadReport
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor


class FakeBalancer(Actor):
    def __init__(self, sim):
        super().__init__(sim, "lb", is_infra=True)
        self.reports = []

    def receive(self, message, src_id):
        assert isinstance(message, LoadReport)
        self.reports.append(message)


class FakeClient(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)

    def receive(self, message, src_id):
        pass


@pytest.fixture
def setup(sim, rng: Random):
    net = Transport(sim, rng, lan_model=FixedLatency(0.0005), wan_model=FixedLatency(0.01))
    config = BrokerConfig(nominal_egress_bps=10_000.0, per_message_overhead_bytes=50)
    server = PubSubServer(sim, "srv", config)
    port = net.register(server, config.actual_egress_bps)
    lb = FakeBalancer(sim)
    net.register(lb)
    lla = LocalLoadAnalyzer(sim, server, port, "lb")
    net.register(lla)
    lla.start()
    clients = [FakeClient(sim, f"c{i}") for i in range(3)]
    for c in clients:
        net.register(c)
    return net, server, lla, lb, clients


class TestReporting:
    def test_reports_arrive_periodically(self, sim, setup):
        net, server, lla, lb, clients = setup
        sim.run_until(5.5)
        assert len(lb.reports) == 5
        assert lb.reports[0].server_id == "srv"

    def test_idle_server_reports_zero_load(self, sim, setup):
        net, server, lla, lb, clients = setup
        sim.run_until(2.5)
        assert lb.reports[-1].measured_egress_bps == 0.0
        assert lb.reports[-1].channels == ()

    def test_nominal_bandwidth_included(self, sim, setup):
        net, server, lla, lb, clients = setup
        sim.run_until(1.5)
        assert lb.reports[0].nominal_egress_bps == 10_000.0

    def test_load_ratio_eq1(self, sim, setup):
        """LR_i = M_i / T_i (paper eq. 1)."""
        net, server, lla, lb, clients = setup
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(0.5)
        # 10 publications x (100+50) B wire, one subscriber -> 1500 B
        for i in range(10):
            sim.schedule(i * 0.04, clients[1].send, "srv", PublishCmd("ch", "x", 100), 100)
        sim.run_until(1.6)
        report = lb.reports[-1]
        assert report.measured_egress_bps == pytest.approx(1500.0, rel=0.1)
        assert report.load_ratio == pytest.approx(0.15, rel=0.1)

    def test_channel_metrics_counted(self, sim, setup):
        net, server, lla, lb, clients = setup
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        clients[1].send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(0.5)
        for i in range(4):
            sim.schedule(i * 0.1, clients[2].send, "srv", PublishCmd("ch", "x", 100), 100)
        sim.run_until(1.6)
        report = lb.reports[-1]
        by_channel = {s.channel: s for s in report.channels}
        snap = by_channel["ch"]
        assert snap.publications_per_s == pytest.approx(4.0)
        assert snap.publisher_count == 1
        assert snap.subscriber_count == 2
        assert snap.messages_out_per_s == pytest.approx(8.0)
        assert snap.bytes_out_per_s == pytest.approx(8 * 150.0)

    def test_distinct_publishers_counted(self, sim, setup):
        net, server, lla, lb, clients = setup
        for c in clients:
            c.send("srv", PublishCmd("ch", "x", 10), 10)
        sim.run_until(1.6)
        snaps = [s for r in lb.reports for s in r.channels if s.channel == "ch"]
        assert max(s.publisher_count for s in snaps) == 3

    def test_window_resets_between_reports(self, sim, setup):
        net, server, lla, lb, clients = setup
        clients[0].send("srv", SubscribeCmd("ch"), 64)
        clients[1].send("srv", PublishCmd("ch", "x", 100), 100)
        sim.run_until(3.5)
        # activity happened in the first window only
        last = lb.reports[-1]
        channel_snaps = [s for s in last.channels if s.channel == "ch"]
        if channel_snaps:  # channel may still appear (it has a subscriber)
            assert channel_snaps[0].publications_per_s == 0.0

    def test_subscribed_but_silent_channel_still_reported(self, sim, setup):
        net, server, lla, lb, clients = setup
        clients[0].send("srv", SubscribeCmd("lurk"), 64)
        sim.run_until(2.5)
        snaps = [s for s in lb.reports[-1].channels if s.channel == "lurk"]
        assert snaps and snaps[0].subscriber_count == 1

    def test_stop_halts_reports(self, sim, setup):
        net, server, lla, lb, clients = setup
        sim.run_until(2.5)
        lla.stop()
        count = len(lb.reports)
        sim.run_until(6.0)
        assert len(lb.reports) == count
