"""Tests for the transport fast path.

Covers the bulk :meth:`Transport.send_fanout` API (ordering, leg sampling,
completion floors, drop accounting, equivalence with :meth:`Transport.send`
and across fault-plane presence, which pairs consult the plane) and the
pruning of per-pair connection state on unregister.
"""

from random import Random

import pytest

from repro.net.latency import FixedLatency, UniformLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


class Recorder(Actor):
    def __init__(self, sim, node_id, *, is_infra=True):
        super().__init__(sim, node_id, is_infra=is_infra)
        self.inbox = []

    def receive(self, message, src_id):
        self.inbox.append((message, src_id))


def _jittery_net(sim):
    return Transport(
        sim,
        Random(11),
        lan_model=UniformLatency(0.001, 0.2),
        wan_model=UniformLatency(0.001, 0.2),
    )


def _fixed_net(sim):
    return Transport(
        sim,
        Random(11),
        lan_model=FixedLatency(0.001),
        wan_model=FixedLatency(0.05),
    )


def _fanout(net, src_id, dst_ids, message, size_bytes, **kwargs):
    """Fan out the way the broker does: resolve the states, then send
    with the batch handed to the NIC now."""
    states = net.fanout_states(src_id, dst_ids)
    return net.send_fanout(
        src_id, dst_ids, states, message, size_bytes, start=net.sim.now, **kwargs
    )


class _Stamper(Recorder):
    """Records ``(node_id, exact arrival time)`` into a shared list."""

    def __init__(self, sim, node_id, stamps):
        super().__init__(sim, node_id)
        self.stamps = stamps

    def receive(self, message, src_id):
        self.stamps.append((self.node_id, message, self.sim.now))


class _HealthyPlane:
    """A fault plane naming ``nodes`` with no active fault: every verdict
    is 0.0 extra."""

    def __init__(self, nodes):
        self.nodes = set(nodes)

    def apply(self, src_id, dst_id):
        return 0.0


class _CuttingPlane:
    """Names ``nodes``, cuts every pair it is asked about, and records them."""

    def __init__(self, nodes):
        self.nodes = set(nodes)
        self.asked = []

    def apply(self, src_id, dst_id):
        self.asked.append((src_id, dst_id))
        return None


class TestSendFanout:
    def test_delivers_to_every_destination(self, sim):
        net = _fixed_net(sim)
        src = Recorder(sim, "src")
        net.register(src)
        dsts = [Recorder(sim, f"d{i}") for i in range(20)]
        for dst in dsts:
            net.register(dst)
        completions = _fanout(net, "src", [d.node_id for d in dsts], "hello", 100)
        assert len(completions) == 20
        sim.run_until(1.0)
        for dst in dsts:
            assert dst.inbox == [("hello", "src")]
        assert net.messages_sent == 20

    def test_unknown_sender_rejected(self, sim):
        net = _fixed_net(sim)
        with pytest.raises(KeyError):
            net.send_fanout("ghost", ["a"], [None], "x", 10, start=sim.now)

    def test_fifo_order_preserved_under_jitter(self, sim):
        # Interleave single sends and batch sends on the same connections:
        # per-destination arrival order must match send order even though
        # every message samples a highly variable latency.
        net = _jittery_net(sim)
        src = Recorder(sim, "src")
        net.register(src)
        b, c = Recorder(sim, "b"), Recorder(sim, "c")
        net.register(b)
        net.register(c)
        net.send("src", "b", 0, 10)
        _fanout(net, "src", ["b", "c"], 1, 10)
        net.send("src", "c", 2, 10)
        _fanout(net, "src", ["c", "b"], 3, 10)
        _fanout(net, "src", ["b", "c"], 4, 10)
        sim.run_until(5.0)
        assert [m for m, __ in b.inbox] == [0, 1, 3, 4]
        assert [m for m, __ in c.inbox] == [1, 2, 3, 4]

    def test_one_latency_sample_per_leg(self, sim):
        # All destinations share one latency model, so a batch draws a
        # single sample: every delivery lands at completion + that sample.
        net = _jittery_net(sim)
        src = Recorder(sim, "src")
        net.register(src)
        stamps = []
        ids = [f"d{i}" for i in range(10)]
        for node_id in ids:
            net.register(_Stamper(sim, node_id, stamps))
        _fanout(net, "src", ids, "x", 10)
        sim.run_until(5.0)
        # Unlimited NIC: all completions equal, so all arrivals coincide.
        assert len(stamps) == 10
        assert len({when for __, __, when in stamps}) == 1

    def test_min_completions_floor_applied(self, sim):
        net = _fixed_net(sim)
        src = Recorder(sim, "src")
        net.register(src)
        d0, d1 = Recorder(sim, "d0"), Recorder(sim, "d1")
        net.register(d0)
        net.register(d1)
        completions = _fanout(
            net, "src", ["d0", "d1"], "x", 10, min_completions=[0.5, 0.0]
        )
        assert completions[0] == 0.5
        assert completions[1] < 0.5
        sim.run_until(2.0)
        assert d0.inbox and d1.inbox

    def test_dead_destination_dropped_and_counted(self, sim):
        net = _fixed_net(sim)
        src = Recorder(sim, "src")
        net.register(src)
        alive_dst = Recorder(sim, "alive")
        dead_dst = Recorder(sim, "dead")
        net.register(alive_dst)
        net.register(dead_dst)
        dead_dst.shutdown()
        _fanout(net, "src", ["alive", "dead", "ghost"], "x", 10)
        sim.run_until(1.0)
        assert alive_dst.inbox == [("x", "src")]
        assert dead_dst.inbox == []
        assert net.messages_sent == 1
        assert net.messages_dropped == 2

    def test_unresolved_state_is_reprobed_per_call(self, sim):
        # A ``None`` state (destination unregistered at resolve time) is
        # looked up again on every fan-out, so a later registration is
        # picked up without re-resolving the whole array.
        net = _fixed_net(sim)
        net.register(Recorder(sim, "src"))
        states = net.fanout_states("src", ["late"])
        assert states == [None]
        net.send_fanout("src", ["late"], states, "early", 10, start=sim.now)
        late = Recorder(sim, "late")
        net.register(late)
        net.send_fanout("src", ["late"], states, "now", 10, start=sim.now)
        sim.run_until(1.0)
        assert late.inbox == [("now", "src")]
        assert (net.messages_sent, net.messages_dropped) == (1, 1)

    def test_matches_sequential_sends_with_fixed_latency(self):
        # With a constant-latency model, a batch must land at exactly the
        # times a back-to-back sequence of send() calls would produce.
        def deliveries(use_batch: bool):
            sim = Simulator()
            net = _fixed_net(sim)
            src = Recorder(sim, "src")
            net.register(src, egress_capacity_bps=8_000.0)  # 10ms per 10B
            stamps = []
            ids = [f"d{i}" for i in range(5)]
            for node_id in ids:
                net.register(_Stamper(sim, node_id, stamps))
            if use_batch:
                _fanout(net, "src", ids, "x", 10)
            else:
                for node_id in ids:
                    net.send("src", node_id, "x", 10)
            sim.run_until(5.0)
            return stamps

        assert deliveries(True) == deliveries(False)

    def test_single_destination_fanout_is_float_identical_to_send(self):
        # The fan-out loop takes n=1 with no dedicated branch, so its NIC
        # clock must advance as ``send``'s does and the latency / FIFO
        # arithmetic must match ``send`` bit for bit: a sampled latency
        # model, a finite NIC that accumulates backlog, and odd sizes.
        # (tests/properties/test_nic_clock_properties.py holds both bodies
        # to the port arithmetic they replaced.)
        def deliveries(use_fanout: bool):
            sim = Simulator()
            net = _jittery_net(sim)
            net.register(Recorder(sim, "src"), egress_capacity_bps=7_000.0)
            stamps = []
            net.register(_Stamper(sim, "dst", stamps))
            completions = []
            for k in range(40):
                size = 13 + 7 * k
                if use_fanout:
                    completions.extend(_fanout(net, "src", ["dst"], k, size))
                else:
                    completions.append(net.send("src", "dst", k, size)[0])
                sim.run_until(sim.now + 0.01)
            sim.run_until(100.0)
            return completions, stamps, net.port("src").total_bytes

        assert deliveries(True) == deliveries(False)

    def test_healthy_fault_plane_changes_nothing(self):
        # One loop serves both configurations: a plane whose every verdict
        # is 0.0 must leave arrival times bit-identical to no plane at all
        # (the extra is added after completion + latency, and x + 0.0 == x).
        def deliveries(with_plane: bool):
            sim = Simulator()
            net = _jittery_net(sim)
            ids = [f"d{i}" for i in range(6)]
            if with_plane:
                net.fault_plane = _HealthyPlane(["src", *ids])
            net.register(Recorder(sim, "src"), egress_capacity_bps=9_000.0)
            stamps = []
            for node_id in ids:
                net.register(_Stamper(sim, node_id, stamps))
            for k in range(20):
                _fanout(net, "src", ids[: 1 + k % 6], k, 11 + 3 * k)
                net.send("src", ids[k % 6], -k, 17 + k)
                sim.run_until(sim.now + 0.02)
            sim.run_until(100.0)
            return stamps, net.messages_sent, net.messages_dropped

        assert deliveries(True) == deliveries(False)

    def test_plane_is_asked_only_about_pairs_it_names(self, sim):
        # Both send bodies consult the plane only when both endpoints are
        # in its ``nodes``; every other pair travels as if no plane were
        # installed.  Here the plane cuts what it is asked about, so a
        # pair it was wrongly asked about would also go missing.
        net = _fixed_net(sim)
        ids = ["a", "b", "c", "d"]
        for node_id in ids:
            net.register(Recorder(sim, node_id))
        plane = _CuttingPlane(["a", "c", "outsider"])
        net.fault_plane = plane
        for src in ids:
            others = [dst for dst in ids if dst != src]
            for dst in others:
                net.send(src, dst, "one", 10)
            _fanout(net, src, others, "batch", 10)
        assert plane.asked == [("a", "c"), ("a", "c"), ("c", "a"), ("c", "a")]
        assert (net.messages_sent, net.messages_dropped) == (20, 4)


class TestPairStatePruning:
    def test_unregister_prunes_both_directions(self, sim):
        net = _fixed_net(sim)
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        for actor in (a, b, c):
            net.register(actor)
        net.send("a", "b", "x", 10)
        net.send("b", "a", "y", 10)
        _fanout(net, "c", ["a", "b"], "z", 10)
        assert net.pair_state_count() == 4
        net.unregister("a")
        assert net.pair_state_count() == 1  # only (c, b) survives
        assert all("a" not in key for key in net._pairs)

    def test_churn_does_not_leak_pair_state(self, sim):
        # Regression: before PR 4 the per-pair tables kept one entry per
        # (departed node, peer) pair forever.
        net = _fixed_net(sim)
        hub = Recorder(sim, "hub")
        net.register(hub)
        for i in range(50):
            node_id = f"ephemeral{i}"
            node = Recorder(sim, node_id, is_infra=False)
            net.register(node)
            net.send("hub", node_id, "ping", 10)
            net.send(node_id, "hub", "pong", 10)
            sim.run_until(sim.now + 1.0)
            net.unregister(node_id)
        assert net.pair_state_count() == 0

    def test_reregistration_starts_from_clean_state(self, sim):
        net = _fixed_net(sim)
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        net.send("a", "b", "first", 10)
        sim.run_until(1.0)
        net.unregister("b")
        replacement = Recorder(sim, "b")
        net.register(replacement)
        net.send("a", "b", "second", 10)
        sim.run_until(2.0)
        # The message reached the *new* actor, not the cached old one.
        assert replacement.inbox == [("second", "a")]
        assert b.inbox == [("first", "a")]
