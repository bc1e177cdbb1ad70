"""Failure detection and failover (repro.core.client_recovery).

Driven with a bare simulator and a recording ``send``: the tests play the
servers by hand, answering (or not answering) pings and SUBSCRIBEs.
"""

from __future__ import annotations

import pytest

from repro.broker.commands import PingCmd, PongReply, SubscribeCmd
from repro.core import client_recovery
from repro.core.client_recovery import ClientRecovery
from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.messages import MappingNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from tests.helpers import make_bare_client, make_static_cluster

SERVERS = ["s1", "s2", "s3"]


def make_client(servers=SERVERS, **config):
    return make_bare_client(
        servers=servers, config=DynamothConfig(client_ping_interval_s=1.0, **config)
    )


def home_of(channel: str, servers=SERVERS) -> str:
    return ConsistentHashRing(list(servers)).lookup(channel)


class TestDetection:
    def test_server_is_declared_dead_after_the_miss_limit(self):
        sim, wire, client = make_client()
        home = home_of("ch")
        client.subscribe("ch", lambda *a: None)
        sim.run_until(3.5)
        assert wire.times(PingCmd, home) == [1.0, 2.0, 3.0]
        assert client.failovers == 0
        sim.run_until(4.5)  # the fourth tick finds three unanswered pings
        assert client.failovers == 1
        assert wire.times(PingCmd, home) == [1.0, 2.0, 3.0]
        # The failover resubscribed on the next live ring candidate.
        assert client.resubscribes == 1
        assert home not in client.subscription_servers("ch")

    def test_a_pong_resets_the_miss_count(self):
        sim, wire, client = make_client()
        home = home_of("ch")
        client.subscribe("ch", lambda *a: None)
        sim.run_until(3.5)  # three misses ...
        client.receive(PongReply(home), home)  # ... then an answer
        sim.run_until(6.5)  # three more: still one short of the limit
        assert client.failovers == 0
        sim.run_until(7.5)
        assert client.failovers == 1

    def test_publish_targets_are_probed_for_five_intervals(self):
        """A pure publisher has no subscription to probe, so the servers it
        recently published through are pinged -- and then forgotten."""
        sim, wire, client = make_client()
        wire.live = set(SERVERS)
        home = home_of("ch")
        sim.run_until(0.5)
        client.publish("ch", "x", 10)
        sim.run_until(20.0)
        # Ticks 1..5 are within 5 x 1 s of the publication; tick 6 is not.
        assert wire.times(PingCmd) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert {to for _, to, m in wire.sent if isinstance(m, PingCmd)} == {home}

    def test_a_dead_publish_target_is_routed_around_until_the_mark_expires(self):
        sim, wire, client = make_client(failed_server_ttl_s=10.0)
        home = home_of("ch")
        wire.live = set(SERVERS) - {home}

        def target() -> str:
            wire.sent.clear()
            client.publish("ch", "x", 10)
            return wire.sent[-1][1]

        sim.run_until(0.5)
        assert target() == home
        sim.run_until(4.5)  # pings 1, 2, 3 unanswered; declared dead at 4
        assert client.failovers == 1
        fallback = target()
        assert fallback != home
        sim.run_until(13.5)
        assert target() == fallback  # mark still live at 13.5 < 4 + 10
        sim.run_until(14.5)
        assert target() == home  # TTL passed: routable again, unprompted


def probe_clock(client, server: str):
    return client._recovery._links[server]


class TestProbeClock:
    """A probe times out on the link's measured clock, not the interval."""

    @pytest.mark.parametrize("rtt", [0.01, 0.2])
    def test_a_silent_server_is_suspected_after_rto_1_2_4_capped(self, rtt):
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live, wire.pong_delay = set(SERVERS), rtt
        client.subscribe("ch", lambda *a: None)
        sim.run_until(5.5)  # pings 1..5 answered after ``rtt``: five samples
        rto = probe_clock(client, home).timeout
        assert rtt < rto < 1.0
        wire.live.discard(home)
        sim.run_until(9.5)
        # The PING at 6 goes again after each timeout, on a doubled clock
        # capped at the 1 s interval; the tick at 7 leaves the round alone.
        timeouts = [rto, min(1.0, 2 * rto), min(1.0, 4 * rto)]
        assert wire.times(PingCmd, home)[-3:] == pytest.approx(
            [6.0, 6.0 + timeouts[0], 6.0 + sum(timeouts[:2])]
        )
        assert client.failovers == 1
        # The failover resubscribes at once, at 6 + rto * (1 + 2 + 4) when
        # uncapped -- not at 9, three intervals after the first miss.
        assert wire.times(SubscribeCmd)[-1] == pytest.approx(6.0 + sum(timeouts))
        assert wire.times(SubscribeCmd)[-1] < 8.0

    def test_a_pong_to_a_resent_probe_does_not_sample(self):
        """Karn's rule: the pong may answer either send, so it times nothing;
        the backed-off clock holds until a probe sent once is answered."""
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live = set(SERVERS)
        client.subscribe("ch", lambda *a: None)
        sim.run_until(3.5)
        clock = probe_clock(client, home)
        rto, estimate = clock.timeout, (clock.srtt, clock.rttvar)
        wire.live.discard(home)
        sim.run_until(4.0 + 1.5 * rto)  # the PING at 4 timed out and went again
        pings = wire.messages(PingCmd)
        assert wire.times(PingCmd, home)[-2:] == pytest.approx([4.0, 4.0 + rto])
        assert pings[-1].stamp == pings[-2].stamp == 4.0
        client.receive(PongReply(home, 4.0), home)
        assert (clock.srtt, clock.rttvar) == estimate
        assert clock.timeout == 2 * rto
        wire.live.add(home)
        sim.run_until(5.5)  # the PING at 5 was sent once: its pong samples
        assert clock.srtt != estimate[0] or clock.rttvar != estimate[1]
        assert clock.timeout < 2 * rto

    def test_a_pong_to_an_older_probe_does_not_sample(self):
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live = set(SERVERS)
        client.subscribe("ch", lambda *a: None)
        sim.run_until(3.5)
        clock = probe_clock(client, home)
        estimate = (clock.srtt, clock.rttvar)
        sim.run_until(4.005)  # the PING at 4 is in flight
        client.receive(PongReply(home, 3.0), home)  # a straggler of the round at 3
        assert (clock.srtt, clock.rttvar) == estimate
        assert client.failovers == 0

    def test_a_late_pong_between_timeouts_resets_the_count(self):
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live = set(SERVERS)
        client.subscribe("ch", lambda *a: None)
        sim.run_until(3.5)
        rto = probe_clock(client, home).timeout
        wire.live.discard(home)
        # Two timeouts (at 4 + rto and 4 + 3 rto); the third is 4 rto away.
        sim.run_until(4.0 + 5 * rto)
        assert len(wire.times(PingCmd, home)) == 6  # 1..3 answered, 4 sent thrice
        client.receive(PongReply(home, 4.0), home)  # the first send, answered late
        wire.live.add(home)
        sim.run_until(30.0)
        assert client.failovers == 0
        assert client.subscription_servers("ch") == {home}

    def test_a_round_trip_jump_to_0_9_interval_keeps_the_server(self):
        """At 0.1 s round trips the clock reads 0.15 s, so the three
        timeouts (0.15 + 0.3 + 0.6 s) outlast a jump to 0.9 s and the late
        pong ends the round.  The backed-off clock is kept until a probe
        sent once is answered, which happens at the 1 s cap: the clock
        catches up and the server is never suspected."""
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live, wire.pong_delay = set(SERVERS), 0.1
        client.subscribe("ch", lambda *a: None)
        sim.run_until(10.5)
        clock = probe_clock(client, home)
        assert clock.timeout == pytest.approx(0.15, abs=0.001)
        wire.pong_delay = 0.9
        sim.run_until(40.0)
        assert client.failovers == 0
        assert client.subscription_servers("ch") == {home}
        assert clock.srtt > 0.5
        assert clock.timeout == 1.0

    def test_a_healthy_link_never_runs_the_timeout(self, monkeypatch):
        calls = []
        original = ClientRecovery._probe_timed_out

        def spy(self, server):
            calls.append((self._client.sim.now, server))
            original(self, server)

        monkeypatch.setattr(ClientRecovery, "_probe_timed_out", spy)
        sim, wire, client = make_client()
        wire.live = set(SERVERS)
        client.subscribe("ch", lambda *a: None)
        sim.run_until(30.0)
        assert len(wire.times(PingCmd)) == 30
        assert calls == []
        # The pong cancelled each timer; the kernel skips cancelled entries.
        # Ticks 1..30, pongs 1.01..29.01 and the SUBSCRIBE's ack: nothing else.
        assert sim.events_processed == 30 + 29 + 1


class TestRecovery:
    def test_backoff_doubles_and_is_capped(self):
        """Nobody ever acks.  Marks expire at once (tiny TTL), so every
        retry re-sends its SUBSCRIBE: the send times show the back-off.
        The ping tick (whole seconds) also re-sends a SUBSCRIBE unacked for
        a second, on every tier: the rounds' sends fall between its."""
        sim, wire, client = make_client(servers=["s1"], failed_server_ttl_s=0.25)
        client.subscribe("ch", lambda *a: None)
        sim.run_until(80.0)
        sends = wire.times(SubscribeCmd)
        # The application's subscribe, re-sent by every tick up to the one
        # at t=4 that runs just before the suspicion.
        assert sends[:5] == [0.0, 1.0, 2.0, 3.0, 4.0]
        rounds, resends = sends[5::2], sends[6::2]
        # Declared dead at t=4: attempt 0 finds its only candidate marked
        # and backs off 0.5 s, so attempt 1 makes the first round's send.
        assert rounds[0] == 4.5
        # Attempt k+1 follows k's ack timeout (2 s) by min(0.5 * 2^k, 10).
        gaps = [round(b - a, 6) for a, b in zip(rounds, rounds[1:])]
        assert gaps[:7] == [3.0, 4.0, 6.0, 10.0, 12.0, 12.0, 12.0]
        # Each round's SUBSCRIBE is re-sent once, by the first tick a
        # second after it; the re-send keeps the round's first send, so
        # the ack check still finds the server missing.
        assert [r - s for s, r in zip(rounds, resends)] == [1.5] * len(resends)
        assert client.reconnects == 0

    def test_recovery_completes_only_on_a_fresh_ack(self):
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live = set(SERVERS) - {home}
        client.subscribe("ch", lambda *a: None)
        sim.run_until(4.5)
        assert client.failovers == 1 and client.reconnects == 0
        sim.run_until(6.5)  # ack timeout (2 s) after the failover at t=4
        assert client.reconnects == 1
        assert client.subscription_servers("ch") <= wire.live

    def test_empty_server_set_is_not_a_recovered_subscription(self, monkeypatch):
        """The failover target dies before the ack check: with nothing
        left in the server set "no ack missing" is vacuously true, and
        must not count as recovered."""
        monkeypatch.setattr(client_recovery, "SUBSCRIBE_ACK_TIMEOUT_S", 10.0)
        sim, wire, client = make_client()
        home = home_of("ch")
        client.subscribe("ch", lambda *a: None)
        sim.run_until(4.5)  # home declared dead at t=4; SUBSCRIBE to a second
        (second,) = client.subscription_servers("ch")
        sim.run_until(8.5)  # pings 5, 6, 7 unanswered: second dead at t=8
        assert client.failovers == 2
        assert client.subscription_servers("ch") == set()
        wire.live = set(SERVERS) - {home, second}
        sim.run_until(14.5)  # the ack check of attempt 0 ran at t=14
        assert client.reconnects == 0
        sim.run_until(30.0)  # the retry reaches the last live server
        assert client.reconnects == 1
        assert client.subscription_servers("ch") == wire.live

    def test_a_later_subscribe_in_flight_does_not_undo_a_verified_recovery(self):
        """The round's server acked its SUBSCRIBE; a reconcile's confirm to
        the same server is still in flight at the ack check.  That later
        round trip is not this round's: the recovery completes, and the
        server is not suspected (reading "any SUBSCRIBE in flight" as
        missing left a client holding no server at all)."""
        sim, wire, client = make_client()
        home = home_of("ch")
        wire.live = set(SERVERS) - {home}
        client.subscribe("ch", lambda *a: None)
        sim.run_until(4.5)  # home declared dead at t=4; SUBSCRIBE to a second
        (second,) = client.subscription_servers("ch")
        assert client.failovers == 1 and client._handshakes == {}  # acked at 4.01
        send = wire.send

        def hold_the_confirm(src, dst, message, size):
            if isinstance(message, SubscribeCmd) and message.plan_version == 1:
                wire.sent.append((sim.now, dst, message))  # its ack is late
            else:
                send(src, dst, message, size)

        wire.send = hold_the_confirm
        mapping = ChannelMapping(ReplicationMode.SINGLE, (second,), 1)
        client.receive(MappingNotice("ch", mapping), second)  # kept: confirm at once
        assert client._handshakes == {(second, "ch"): (4.5, 4.5, 1)}
        sim.run_until(6.5)  # the ack check of the failover's round ran at t=6
        assert client.reconnects == 1 and client.failovers == 1
        assert client.subscription_servers("ch") == {second}

    def test_unsubscribe_abandons_the_recovery(self):
        sim, wire, client = make_client()
        client.subscribe("ch", lambda *a: None)
        sim.run_until(4.5)
        assert client.failovers == 1
        client.unsubscribe("ch")
        before = len(wire.times(SubscribeCmd))
        sim.run_until(60.0)
        assert len(wire.times(SubscribeCmd)) == before
        assert client.reconnects == 0


def test_stale_ack_does_not_fake_a_recovery():
    """Regression: a server left by a normal migration stayed "acked"
    forever, so when every server died the failover's consistent-hashing
    fallback picked the old home, the stale ack satisfied the ack check,
    and the client reported a reconnect with zero servers alive."""
    cluster = make_static_cluster(
        initial_servers=2, config=DynamothConfig(client_ping_interval_s=1.0)
    )
    sub = cluster.create_client("sub")
    pub = cluster.create_client("pub")
    sub.subscribe("ch", lambda *a: None)
    cluster.run_for(1.0)
    assert sub.subscription_servers("ch") == {"pub2"}  # the ring's choice
    cluster.set_static_mapping(
        "ch", ChannelMapping(ReplicationMode.SINGLE, ("pub1",), 1)
    )
    for i in range(5):
        pub.publish("ch", i, 10)
        cluster.run_for(0.5)
    cluster.run_for(2.0)
    assert sub.subscription_servers("ch") == {"pub1"}  # migrated off pub2
    for server_id in list(cluster.servers):
        cluster.crash_server(server_id)
    cluster.run_for(20.0)
    assert sub.failovers == 2
    assert sub.reconnects == 0
