"""Unit tests for the actor transport."""

from random import Random
import pytest

from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


class Recorder(Actor):
    """Test actor that records everything it receives."""

    def __init__(self, sim, node_id, *, is_infra=True):
        super().__init__(sim, node_id, is_infra=is_infra)
        self.received = []

    def receive(self, message, src_id):
        self.received.append((self.sim.now, message, src_id))


@pytest.fixture
def net(sim, rng: Random):
    return Transport(sim, rng, lan_model=FixedLatency(0.001), wan_model=FixedLatency(0.050))


class TestRegistration:
    def test_register_and_lookup(self, sim, net):
        actor = Recorder(sim, "a")
        port = net.register(actor)
        assert net.actor("a") is actor
        assert net.port("a") is port
        assert actor.transport is net

    def test_duplicate_id_rejected(self, sim, net):
        net.register(Recorder(sim, "a"))
        with pytest.raises(ValueError):
            net.register(Recorder(sim, "a"))

    def test_unregister(self, sim, net):
        actor = Recorder(sim, "a")
        net.register(actor)
        net.unregister("a")
        assert net.actor("a") is None
        assert actor.transport is None


class TestDelivery:
    def test_infra_to_infra_uses_lan(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        a.send("b", "ping", 10)
        sim.run_until(1.0)
        assert b.received == [(0.001, "ping", "a")]

    def test_client_to_infra_uses_wan(self, sim, net):
        client = Recorder(sim, "c", is_infra=False)
        server = Recorder(sim, "s")
        net.register(client)
        net.register(server)
        client.send("s", "hello", 10)
        sim.run_until(1.0)
        assert server.received[0][0] == pytest.approx(0.050)

    def test_infra_to_client_uses_wan(self, sim, net):
        client = Recorder(sim, "c", is_infra=False)
        server = Recorder(sim, "s")
        net.register(client)
        net.register(server)
        server.send("c", "notify", 10)
        sim.run_until(1.0)
        assert client.received[0][0] == pytest.approx(0.050)

    def test_transmission_delay_added_for_limited_port(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a, egress_capacity_bps=1000.0)
        net.register(b)
        a.send("b", "big", 500)  # 0.5 s transmission
        sim.run_until(1.0)
        assert b.received[0][0] == pytest.approx(0.501)

    def test_messages_to_unknown_destination_dropped(self, sim, net):
        a = Recorder(sim, "a")
        net.register(a)
        a.send("ghost", "m", 10)
        sim.run_until(1.0)
        assert net.messages_dropped == 1

    def test_messages_to_dead_actor_dropped_on_arrival(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        a.send("b", "m", 10)
        b.shutdown()  # dies while the message is in flight
        sim.run_until(1.0)
        assert b.received == []
        assert net.messages_dropped == 1

    def test_fanout_to_actor_dying_in_flight_dropped_on_arrival(self, sim, net):
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        for actor in (a, b, c):
            net.register(actor)
        states = net.fanout_states("a", ["b", "c"])
        net.send_fanout("a", ["b", "c"], states, "m", 10, start=sim.now)
        b.shutdown()
        sim.run_until(1.0)
        assert b.received == [] and [m for _, m, _ in c.received] == ["m"]
        assert (net.messages_sent, net.messages_dropped) == (2, 1)

    def test_messages_to_actor_unregistered_in_flight_dropped_on_arrival(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        a.send("b", "m", 10)
        net.unregister("b")  # leaves, still alive, while the message is in flight
        sim.run_until(1.0)
        assert b.received == []
        assert net.messages_dropped == 1

    def test_in_flight_message_is_not_handed_to_a_new_actor_under_the_same_id(self, sim, net):
        """Crash -> restart under one id: the message was for the old
        incarnation, and dies with it (DESIGN.md 6d, fault model)."""
        a, old = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(old)
        a.send("b", "for the old b", 10)
        old.shutdown()
        net.unregister("b")
        fresh = Recorder(sim, "b")
        net.register(fresh)  # before the message lands
        sim.run_until(1.0)
        assert old.received == [] and fresh.received == []
        assert net.messages_dropped == 1
        a.send("b", "for the new b", 10)
        sim.run_until(2.0)
        assert [m for _, m, _ in fresh.received] == ["for the new b"]
        assert net.messages_dropped == 1

    def test_same_actor_reregistered_receives_again(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        net.unregister("b")
        net.register(b)
        a.send("b", "m", 10)
        sim.run_until(1.0)
        assert [m for _, m, _ in b.received] == ["m"]
        assert net.messages_dropped == 0

    def test_shut_down_actor_stays_dead_when_reregistered(self, sim, net):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        a.send("b", "in flight", 10)
        b.shutdown()
        net.unregister("b")
        net.register(b)
        a.send("b", "sent to the dead", 10)
        sim.run_until(1.0)
        assert b.received == []
        assert net.messages_dropped == 2

    def test_unknown_sender_raises(self, sim, net):
        net.register(Recorder(sim, "b"))
        with pytest.raises(KeyError):
            net.send("nobody", "b", "m", 10)

    def test_in_order_delivery_same_route(self, sim, net):
        """FIFO port + fixed latency => messages arrive in send order."""
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a, egress_capacity_bps=10_000.0)
        net.register(b)
        for i in range(10):
            a.send("b", i, 100)
        sim.run_until(1.0)
        assert [m for __, m, __ in b.received] == list(range(10))

    def test_send_without_transport_raises(self, sim):
        lone = Recorder(sim, "x")
        with pytest.raises(RuntimeError):
            lone.send("y", "m", 1)


class _NanLatency:
    """A latency model whose sample is NaN (no ``fixed_delay``)."""

    def sample(self, rng):
        return float("nan")


class _ParetoLatency:
    """A latency model declaring a law the transport does not know."""

    law = ("pareto", 1.0, 2.0)

    def sample(self, rng):
        return 1.0


class TestRejectedSends:
    """A send the transport rejects leaves the sender able to send."""

    @pytest.mark.parametrize("size", [float("nan"), -1])
    @pytest.mark.parametrize("kind", ["send", "send_fanout"])
    def test_a_bad_size_leaves_the_port_untouched(self, sim, net, kind, size):
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        port = net.register(a, egress_capacity_bps=1000.0)
        net.register(b)
        a.send("b", "first", 500)
        before = (port.busy_until, port.total_bytes, port.total_messages, sim.pending_count)
        with pytest.raises(ValueError, match="negative message size"):
            if kind == "send":
                net.send("a", "b", "bad", size)
            else:
                net.send_fanout(
                    "a", ["b"], net.fanout_states("a", ["b"]), "bad", size, start=sim.now
                )
        assert (port.busy_until, port.total_bytes, port.total_messages, sim.pending_count) == before
        a.send("b", "next", 500)
        sim.run_until(2.0)
        assert b.received == [(0.501, "first", "a"), (1.001, "next", "a")]

    def test_a_nan_delivery_time_is_rejected_before_it_is_queued(self, sim, rng):
        net = Transport(sim, rng, lan_model=_NanLatency())
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        net.register(a)
        net.register(b)
        with pytest.raises(ValueError, match="cannot schedule in the past"):
            net.send("a", "b", "m", 10)
        for dsts, match in ((["b"], "cannot schedule in the past"), (["b", "a"], "NaN")):
            with pytest.raises(ValueError, match=match):
                net.send_fanout("a", dsts, net.fanout_states("a", dsts), "m", 10, start=0.0)
        assert sim.pending_count == 0 and net.messages_sent == 0

    def test_a_law_of_unknown_kind_is_rejected_when_the_pair_resolves(self, sim, rng):
        """The send bodies know two laws; a third must not be drawn as one."""
        net = Transport(sim, rng, lan_model=_ParetoLatency())
        net.register(Recorder(sim, "a"))
        net.register(Recorder(sim, "b"))
        with pytest.raises(ValueError, match="unknown latency law: 'pareto'"):
            net.send("a", "b", "m", 10)
        assert sim.pending_count == 0 and net.messages_sent == 0


class TestOverriddenScheduleBatch:
    """A simulator that overrides ``schedule_batch`` -- a subclass, or a
    profiler patching the class -- sees every delivery go through it."""

    def test_every_delivery_goes_through_the_override(self, rng):
        batches = []

        class Watched(Simulator):
            def schedule_batch(self, fn, times, args_seq):
                batches.append(list(times))
                return super().schedule_batch(fn, times, args_seq)

        sim = Watched()
        net = Transport(sim, rng, lan_model=FixedLatency(0.001), wan_model=FixedLatency(0.050))
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c", is_infra=False)
        for actor in (a, b, c):
            net.register(actor)
        a.send("b", "one", 10)
        for dsts in (["b", "c"], ["c", "b"]):  # sorted, then not
            net.send_fanout("a", dsts, net.fanout_states("a", dsts), "fan", 10, start=0.0)
        sim.run()
        assert batches == [[0.001], [0.001, 0.05], [0.05, 0.001]]
        assert [m for _, m, _ in b.received] == ["one", "fan", "fan"]
        assert len(c.received) == 2 and net.messages_sent == 5
