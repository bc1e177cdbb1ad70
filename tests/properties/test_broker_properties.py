"""Property-based tests for pub/sub broker invariants."""

from collections import deque
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.commands import Delivery, PublishCmd, SubscribeCmd, UnsubscribeCmd
from repro.broker.config import BrokerConfig
from repro.broker.server import PubSubServer
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


class Sink(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)
        self.deliveries = []

    def receive(self, message, src_id):
        if isinstance(message, Delivery):
            self.deliveries.append(message)


def build_world(n_clients=4):
    sim = Simulator()
    net = Transport(
        sim, Random(0), lan_model=FixedLatency(0.001), wan_model=FixedLatency(0.01)
    )
    config = BrokerConfig(per_connection_bps=None)
    server = PubSubServer(sim, "srv", config)
    net.register(server, config.actual_egress_bps)
    clients = [Sink(sim, f"c{i}") for i in range(n_clients)]
    for c in clients:
        net.register(c)
    return sim, server, clients


# One random op sequence: (op, client_index, channel_index)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["sub", "unsub", "pub"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=60,
)


class TestBrokerInvariants:
    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_membership_matches_replayed_state(self, ops):
        """The broker's subscriber sets equal a naive replay of the ops."""
        sim, server, clients = build_world()
        expected = {}
        t = 0.0
        for op, ci, chi in ops:
            t += 0.05
            channel = f"ch{chi}"
            client = clients[ci]
            if op == "sub":
                sim.schedule_at(t, client.send, "srv", SubscribeCmd(channel), 64)
                expected.setdefault(channel, set()).add(client.node_id)
            elif op == "unsub":
                sim.schedule_at(t, client.send, "srv", UnsubscribeCmd(channel), 64)
                expected.get(channel, set()).discard(client.node_id)
            else:
                sim.schedule_at(
                    t, client.send, "srv", PublishCmd(channel, "x", 10), 10
                )
        sim.run_until(t + 1.0)
        for channel, members in expected.items():
            assert server.subscribers(channel) == members

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_deliveries_only_to_current_subscribers(self, ops):
        """Every delivery a client received corresponds to a publication on
        a channel it was subscribed to at that point of the sequence."""
        sim, server, clients = build_world()
        # replay model: channel -> subscriber set; record which
        # (channel, payload) each client may receive
        allowed = {c.node_id: set() for c in clients}
        members = {}
        t = 0.0
        for i, (op, ci, chi) in enumerate(ops):
            t += 0.05
            channel = f"ch{chi}"
            client = clients[ci]
            if op == "sub":
                sim.schedule_at(t, client.send, "srv", SubscribeCmd(channel), 64)
                members.setdefault(channel, set()).add(client.node_id)
            elif op == "unsub":
                sim.schedule_at(t, client.send, "srv", UnsubscribeCmd(channel), 64)
                members.get(channel, set()).discard(client.node_id)
            else:
                payload = f"m{i}"
                sim.schedule_at(t, client.send, "srv", PublishCmd(channel, payload, 10), 10)
                for member in members.get(channel, ()):
                    allowed[member].add((channel, payload))
        sim.run_until(t + 1.0)
        for client in clients:
            for delivery in client.deliveries:
                assert (delivery.channel, delivery.payload) in allowed[client.node_id]

    @given(
        sizes=st.lists(st.integers(min_value=10, max_value=3000), min_size=1, max_size=30)
    )
    @settings(max_examples=40, deadline=None)
    def test_delivery_count_conservation(self, sizes):
        """deliveries == publications x subscribers when nothing is killed."""
        sim, server, clients = build_world()
        for c in clients[:3]:
            c.send("srv", SubscribeCmd("ch"), 64)
        sim.run_until(0.5)
        for i, size in enumerate(sizes):
            sim.schedule_at(0.5 + i * 0.05, clients[3].send, "srv",
                            PublishCmd("ch", i, size), size)
        sim.run_until(0.5 + len(sizes) * 0.05 + 2.0)
        assert server.killed_connections == 0
        assert server.delivery_count == len(sizes) * 3
        total = sum(len(c.deliveries) for c in clients[:3])
        assert total == len(sizes) * 3


# ----------------------------------------------------------------------
# Output buffer against a reference model
# ----------------------------------------------------------------------
class ReferenceBuffers:
    """The output-buffer model as a deque of ``(completion, size)`` per
    client, fed from every fan-out the transport is handed.

    It expires, enqueues and compares against the limit in the broker's
    order, so the clients it kills, and when, and what each buffer holds
    at any time are what the broker's packed buffer must report.
    """

    def __init__(self, sim, limit):
        self.sim = sim
        self.limit = limit
        self.buffers = {}
        self.kills = []
        self.completions = set()

    def buffered_bytes(self, client_id, now):
        buf = self.buffers.get(client_id)
        if buf is None:
            return 0
        pending, held = buf
        while pending and pending[0][0] <= now:
            held -= pending.popleft()[1]
        buf[1] = held
        return held

    def fanout(self, dst_ids, completions, size, done):
        for dst_id, completion in zip(dst_ids, completions):
            self.buffered_bytes(dst_id, done)
            buf = self.buffers.setdefault(dst_id, [deque(), 0])
            buf[0].append((completion, size))
            buf[1] += size
            self.completions.add(completion)
            if buf[1] > self.limit:
                self.kills.append((self.sim.now, dst_id))
                del self.buffers[dst_id]


def build_buffer_world(rate, limit, cpu_s, n_clients=4):
    """One server behind a 2 kB/s NIC with a ``limit``-byte output buffer,
    ``n_clients`` subscribers and a publisher, zero latency; the
    transport's fan-outs also feed a :class:`ReferenceBuffers`, and the
    server's kills are recorded as ``(time, client)``."""
    sim = Simulator()
    net = Transport(sim, Random(0), lan_model=FixedLatency(0.0), wan_model=FixedLatency(0.0))
    config = BrokerConfig(
        per_connection_bps=rate,
        output_buffer_limit_bytes=limit,
        per_message_overhead_bytes=0,
        cpu_per_publish_s=cpu_s,
        cpu_per_delivery_s=0.0,
    )
    server = PubSubServer(sim, "srv", config)
    net.register(server, 2_000.0)
    clients = [Sink(sim, f"c{i}") for i in range(n_clients)]
    publisher = Sink(sim, "pub")
    for actor in (*clients, publisher):
        net.register(actor)
    ref = ReferenceBuffers(sim, limit)
    send_fanout = net.send_fanout

    def recording_send_fanout(src_id, dst_ids, states, message, size, *, start, **kwargs):
        completions = send_fanout(src_id, dst_ids, states, message, size, start=start, **kwargs)
        ref.fanout(dst_ids, completions, size, start)
        return completions

    net.send_fanout = recording_send_fanout
    kills = []
    kill_connection = server._kill_connection

    def recording_kill(client_id, conn):
        kills.append((sim.now, client_id))
        kill_connection(client_id, conn)

    server._kill_connection = recording_kill
    return sim, server, clients, publisher, ref, kills


def assert_buffers_match(server, clients, ref, now):
    for client in clients:
        conn = server.connection(client.node_id)
        held = conn.buffered_bytes(now) if conn is not None else 0
        assert held == ref.buffered_bytes(client.node_id, now), (client.node_id, now)


#: one step: (gap before it, op, client index, channel index, size); a gap
#: of ``None`` lands the step exactly on the next queued completion.
buffer_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 0.002, 0.01, 0.07, 0.3, None]),
        st.sampled_from(["pub", "pub", "pub", "sub", "unsub"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=1,
    max_size=80,
)


class TestOutputBufferMatchesReference:
    @given(
        steps=buffer_steps,
        rate=st.sampled_from([None, 500.0]),
        limit=st.sampled_from([150, 600, 2_500]),
        cpu_s=st.sampled_from([0.0, 0.004]),
    )
    @settings(max_examples=80, deadline=None)
    def test_kills_and_occupancy_equal_the_deque_model(self, steps, rate, limit, cpu_s):
        """Against a slow NIC and a small limit, the packed buffer kills the
        same clients at the same times as the deque model, and holds the
        same bytes after every step."""
        sim, server, clients, publisher, ref, kills = build_buffer_world(rate, limit, cpu_s)
        for client in clients:
            client.send("srv", SubscribeCmd("ch0"), 64)
            client.send("srv", SubscribeCmd("ch1"), 64)
        t = 0.5
        sim.run_until(t)
        for gap, op, ci, chi, size in steps:
            if gap is None:
                later = [c for c in ref.completions if c > t]
                t = min(later) if later else t
            else:
                t += gap
            channel = f"ch{chi}"
            if op == "pub":
                sim.schedule_at(t, publisher.send, "srv", PublishCmd(channel, "x", size), size)
            elif op == "sub":
                sim.schedule_at(t, clients[ci].send, "srv", SubscribeCmd(channel), 64)
            else:
                sim.schedule_at(t, clients[ci].send, "srv", UnsubscribeCmd(channel), 64)
            sim.run_until(t)
            assert kills == ref.kills
            assert_buffers_match(server, clients, ref, t)
        drained = max([t, *ref.completions]) + 1.0
        sim.run_until(drained)
        assert_buffers_match(server, clients, ref, drained)
        assert kills == ref.kills

    @pytest.mark.parametrize("rate", [None, 500.0])
    def test_a_long_backlog_compacts_and_drains(self, rate):
        """48 deliveries queued on one connection, then drained in steps
        landing on exact completions: the fan-out's expiry and
        ``buffered_bytes`` each compact the arrays around live entries, and
        occupancy equals the deque model throughout."""
        sim, server, clients, publisher, ref, kills = build_buffer_world(rate, 10_000, 0.0, 1)
        clients[0].send("srv", SubscribeCmd("ch0"), 64)
        sim.run_until(0.5)
        for __ in range(48):
            publisher.send("srv", PublishCmd("ch0", "x", 10), 10)
        sim.run_until(0.5)
        conn = server.connection("c0")
        assert len(conn._done_at) == 48
        completions = sorted(ref.completions)
        assert_buffers_match(server, clients, ref, 0.5)
        # 30 entries expire in the fan-out loop, on an exact completion
        sim.run_until(completions[29])
        publisher.send("srv", PublishCmd("ch0", "x", 10), 10)
        sim.run_until(completions[29])
        assert len(conn._done_at) == 19 and conn._head == 0
        assert_buffers_match(server, clients, ref, completions[29])
        # 10, then 17 of those 19 expire in ``buffered_bytes``: the second
        # expiry compacts around the two still queued
        assert_buffers_match(server, clients, ref, completions[39])
        assert conn._head == 10
        assert_buffers_match(server, clients, ref, completions[46])
        assert len(conn._done_at) == 2 and conn._head == 0
        end = max(ref.completions)
        assert_buffers_match(server, clients, ref, end)
        assert conn.buffered_bytes(end) == 0
        # fewer than COMPACT_MIN stale entries stay until the next expiry
        assert len(conn._done_at) == len(conn._sizes) == conn._head == 2
        assert kills == ref.kills == []
