"""Survivors tell their clients about a confirmed failure (FailureNotice).

The balancer pushes its confirmed-dead set to every dispatcher; each
dispatcher relays a change of it to the clients connected to its server,
and to a client subscribing later, once.  A client replaces its ``_down``
set wholesale: a newly-down server goes through the one server-loss path,
and a server that left the set is routable again at once.
"""

from __future__ import annotations

from repro.broker.commands import PublishCmd, SubscribeCmd
from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.messages import FailureNotice, PlanPush
from tests.helpers import make_bare_client, make_static_cluster

SERVERS = ["s1", "s2", "s3"]


def channel_on(ring: ConsistentHashRing, server: str, prefix: str = "ch") -> str:
    """The first ``<prefix><i>`` the ring maps to ``server``."""
    return next(f"{prefix}{i}" for i in range(1000) if ring.lookup(f"{prefix}{i}") == server)


def record_notices(dispatcher) -> list:
    """Wrap one dispatcher's ``send``; returns its FailureNotices as (dst, set)."""
    told = []
    send = dispatcher.send

    def recording_send(dst, message, size):
        if isinstance(message, FailureNotice):
            told.append((dst, message.failed_servers))
        send(dst, message, size)

    dispatcher.send = recording_send
    return told


def publish_target(wire, client, channel: str) -> str:
    wire.sent.clear()
    client.publish(channel, "x", 10)
    (target,) = [dst for _, dst, message in wire.sent if isinstance(message, PublishCmd)]
    return target


class TestDispatcherTellsItsClients:
    def test_once_per_change_and_late_subscribers_on_their_first_subscribe(self):
        cluster = make_static_cluster(initial_servers=3)
        ring = cluster.plan.ring
        dispatcher = cluster.dispatchers["pub1"]
        told = record_notices(dispatcher)
        a, b, late = (cluster.create_client(name) for name in ("a", "b", "late"))
        a.subscribe(channel_on(ring, "pub1", "x"), lambda *args: None)
        b.subscribe(channel_on(ring, "pub1", "y"), lambda *args: None)
        cluster.run_for(1.0)

        push = PlanPush(cluster.plan, None, ("pub3",))
        dispatcher.receive(push, "lb")
        assert told == [("a", ("pub3",)), ("b", ("pub3",))]
        dispatcher.receive(push, "lb")  # the same set again: no change
        assert len(told) == 2

        late.subscribe(channel_on(ring, "pub1", "z"), lambda *args: None)
        late.subscribe(channel_on(ring, "pub1", "w"), lambda *args: None)
        cluster.run_for(1.0)
        assert told[2:] == [("late", ("pub3",))]  # told once, not per SUBSCRIBE

        dispatcher.receive(PlanPush(cluster.plan, None, ()), "lb")  # re-admitted
        assert told[3:] == [("a", ()), ("b", ()), ("late", ())]

    def test_no_confirmed_failure_sends_nothing(self):
        cluster = make_static_cluster(initial_servers=3)
        dispatcher = cluster.dispatchers["pub1"]
        told = record_notices(dispatcher)
        client = cluster.create_client("c")
        client.subscribe(channel_on(cluster.plan.ring, "pub1"), lambda *args: None)
        cluster.run_for(1.0)
        dispatcher.receive(PlanPush(cluster.plan), "lb")
        cluster.run_for(1.0)
        assert told == []


class TestClientReaction:
    def test_probing_off_detaches_and_resubscribes_past_the_dead_server(self):
        cluster = make_static_cluster(initial_servers=3)
        ring = cluster.plan.ring
        victim = "pub2"
        channel = channel_on(ring, victim)
        survivor_channel = channel_on(ring, "pub1", "keep")
        got = []
        sub = cluster.create_client("sub")
        pub = cluster.create_client("pub")
        sub.subscribe(channel, lambda ch, body, env: got.append(body))
        for client in (sub, pub):
            # A subscription on a survivor is what gets a client told.
            client.subscribe(survivor_channel, lambda *args: None)
        cluster.run_for(1.0)
        assert sub.subscription_servers(channel) == {victim}

        cluster.crash_server(victim)
        push = PlanPush(cluster.plan, None, (victim,))
        for dispatcher in cluster.dispatchers.values():
            dispatcher.receive(push, "lb")
        cluster.run_for(2.0)

        fallback = ring.lookup(channel, exclude={victim})
        assert sub.subscription_servers(channel) == {fallback}
        assert sub.failovers == 1 and pub.failovers == 1
        pub.publish(channel, "after", 20)
        cluster.run_for(1.0)
        assert got == ["after"]

    def test_a_notice_naming_no_new_server_is_a_no_op(self):
        sim, wire, client = make_bare_client(servers=SERVERS)
        ring = ConsistentHashRing(SERVERS)
        home = ring.lookup("ch")
        other = next(s for s in SERVERS if s != home)
        client.subscribe("ch", lambda *args: None)
        client.receive(FailureNotice((other,)), f"dispatcher@{home}")
        sim.run_until(1.0)
        assert client.failovers == 1
        wire.sent.clear()
        client.receive(FailureNotice((other,)), f"dispatcher@{home}")
        sim.run_until(2.0)
        assert client.failovers == 1
        assert wire.messages(SubscribeCmd) == []

    def test_a_failure_already_suspected_is_not_failed_over_twice(self):
        sim, wire, client = make_bare_client(
            servers=SERVERS, config=DynamothConfig(client_ping_interval_s=1.0)
        )
        home = ConsistentHashRing(SERVERS).lookup("ch")
        wire.live = set(SERVERS) - {home}
        client.subscribe("ch", lambda *args: None)
        sim.run_until(4.5)  # three unanswered pings: suspected at t=4
        assert client.failovers == 1
        sends = len(wire.messages(SubscribeCmd))
        client.receive(FailureNotice((home,)), "dispatcher@elsewhere")
        sim.run_until(10.0)
        assert client.failovers == 1
        assert len(wire.messages(SubscribeCmd)) == sends
        # Confirmed, so no longer an expiring suspicion of this client's own.
        assert client._recovery.failed == {}

    def test_a_shrinking_set_makes_the_server_routable_again(self):
        sim, wire, client = make_bare_client(servers=SERVERS)
        home = ConsistentHashRing(SERVERS).lookup("ch")
        assert publish_target(wire, client, "ch") == home
        client.receive(FailureNotice((home,)), "dispatcher@elsewhere")
        assert publish_target(wire, client, "ch") != home
        client.receive(FailureNotice(()), "dispatcher@elsewhere")  # re-admitted
        assert publish_target(wire, client, "ch") == home
