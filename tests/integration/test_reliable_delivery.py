"""Reliable-delivery tier, end to end: reconnect replay, lossy-link
repair, the retry timer of a stream gone quiet, truthful eviction,
and the dedup-window regression.

These tests drive the full broker/client stack (real transport, real
reconnect path) rather than the unit-level state machines covered by
tests/core/test_reliability.py.  The canonical loss shape: a server
closes the subscriber's connection, publications land while the client
is away, and the resume point on re-SUBSCRIBE turns the outage into a
gap replay.
"""

from __future__ import annotations

from repro.broker.commands import Delivery, ReplayRequest
from repro.check.scenario import Scenario, _planted_bugs
from repro.core.client import DynamothClient
from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.messages import AppEnvelope
from repro.core.reliability import REPLAY_CACHE_MAX_MSGS, REPLAY_RETRY_COOLDOWN_S, BrokerReliability
from repro.faults import ChaosSchedule, DegradeLink, FaultInjector
from repro.obs.trace import ReplayEvent, ReplayGapEvent, Tracer
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTask


def _cluster(config: DynamothConfig, *, tracer=None, seed: int = 0) -> DynamothCluster:
    return DynamothCluster(
        seed=seed,
        config=config,
        initial_servers=3,
        balancer=BALANCER_NONE,
        tracer=tracer,
    )


def _outage_run(config: DynamothConfig, *, away: int = 2, tracer=None):
    """Publish 3 messages, kill the connection, publish ``away`` more
    while the subscriber is gone, then let it reconnect and settle.

    Returns (cluster, subscriber client, received bodies, home server).
    """
    cluster = _cluster(config, tracer=tracer)
    got = []
    sub = cluster.create_client("sub")
    sub.subscribe("arena", lambda ch, body, env: got.append(body))
    pub = cluster.create_client("pub")
    cluster.run_for(1.0)
    for i in range(3):
        pub.publish("arena", f"live{i}", 60)
    cluster.run_for(1.0)

    home = cluster.plan.ring.lookup("arena")
    server = cluster.servers[home]
    server.close_all_connections()
    cluster.run_for(0.05)
    for i in range(away):
        pub.publish("arena", f"away{i}", 60)
    cluster.run_for(6.0)  # reconnect + resume replay + cooldown retries
    return cluster, sub, got, server


class TestReconnectReplay:
    def test_resume_point_replays_the_outage_window(self):
        tracer = Tracer()
        config = DynamothConfig(delivery_tier="at_least_once")
        cluster, sub, got, server = _outage_run(config, tracer=tracer)
        # Every publication arrived at least once, outage included.
        assert set(got) == {"live0", "live1", "live2", "away0", "away1"}
        assert server.reliability is not None
        assert server.reliability.replayed_messages >= 2
        replays = [e for e in tracer.events if isinstance(e, ReplayEvent)]
        assert replays, "no replay event traced"
        assert replays[0].client == "sub"
        # Nothing was evicted, so no gap notice was warranted.
        assert not any(isinstance(e, ReplayGapEvent) for e in tracer.events)

    def test_exactly_once_delivers_the_outage_window_without_duplicates(self):
        config = DynamothConfig(delivery_tier="exactly_once")
        cluster, sub, got, server = _outage_run(config)
        assert sorted(got) == ["away0", "away1", "live0", "live1", "live2"]


def _lossy_window_run(tier: str):
    """4 channels x 3 subscribers on 2 brokers, one publisher per channel
    at 4 msg/s; the links of the first two channels' subscribers lose 40%
    for the middle third of the run.  Returns (delivered, replayed)."""
    cluster = DynamothCluster(
        seed=0,
        config=DynamothConfig(max_servers=2, delivery_tier=tier),
        initial_servers=2,
        balancer=BALANCER_NONE,
    )
    got = []
    subscribers, tasks = [], []
    for c in range(4):
        for s in range(3):
            sub = cluster.create_client(f"sub-{c}-{s}")
            sub.subscribe(f"tile:{c}", lambda ch, body, env: got.append(body))
            subscribers.append(sub)
        pub = cluster.create_client(f"pub-{c}")
        tasks.append(
            PeriodicTask(
                cluster.sim,
                0.25,
                lambda now, pub=pub, c=c: pub.publish(f"tile:{c}", pub.published, 200),
            )
        )
    FaultInjector(
        cluster,
        ChaosSchedule(
            tuple(
                DegradeLink(3.0, sub.node_id, server_id, loss=0.4, until=5.0)
                for sub in subscribers[:6]
                for server_id in sorted(cluster.servers)
            )
        ),
    ).arm()
    cluster.run_until(1.0)
    for task in tasks:
        task.start()
    cluster.run_until(7.0)
    for task in tasks:
        task.stop()
    cluster.run_for(2.0)  # let replay requests drain
    replayed = sum(
        server.reliability.replayed_messages
        for server in cluster.servers.values()
        if server.reliability is not None
    )
    return len(got), replayed


class TestLossyLink:
    def test_reliable_tiers_repair_the_lossy_window(self):
        """A degraded subscriber link is the canonical gap producer:
        at_most_once just loses those deliveries; the reliable tiers see
        the sequence holes and replay them."""
        lossy, replayed = _lossy_window_run("at_most_once")
        assert replayed == 0
        for tier in ("at_least_once", "exactly_once"):
            delivered, replayed = _lossy_window_run(tier)
            assert delivered >= lossy
            assert replayed > 0


def _quiet_stream_run():
    """m1 arrives, m2 is lost on the subscriber's link, m3 arrives and
    finds the hole -- and the ReplayRequest that asks for m2 is lost too.
    Then nothing is published.  Returns (cluster, subscriber, received
    bodies, home server id, time the hole was found)."""
    cluster = _cluster(DynamothConfig(delivery_tier="exactly_once"))
    home = cluster.plan.ring.lookup("arena")
    got = []
    sub = cluster.create_client("sub")
    sub.subscribe("arena", lambda ch, body, env: got.append(body))
    pub = cluster.create_client("pub")
    FaultInjector(
        cluster, ChaosSchedule((DegradeLink(2.0, "sub", home, loss=1.0, until=2.5),))
    ).arm()
    wire_send, dropped = sub.send, []

    def lose_the_first_request(dst, message, size):
        if isinstance(message, ReplayRequest) and not dropped:
            dropped.append(message)
        else:
            wire_send(dst, message, size)

    vars(sub)["send"] = lose_the_first_request
    for at, body in ((1.0, "m1"), (2.1, "m2"), (3.0, "m3")):
        cluster.sim.schedule_at(at, pub.publish, "arena", body, 60)
    found = []
    sub.on_wire_delivery = lambda ch, delivery: found.append(cluster.sim.now)
    cluster.run_until(3.0)
    while len(found) < 2:  # step to m3's arrival: the hole is found and asked for
        cluster.sim.step()
    assert got == ["m1", "m3"] and dropped == [ReplayRequest("arena", 1, (2,))]
    assert sub.gap_requests == 1
    return cluster, sub, got, home, found[-1]


class TestQuietStreamRepair:
    def test_a_lost_request_is_retried_when_nothing_arrives(self):
        """Regression: the retry used to wait for the stream's next
        arrival, so a hole on a stream that went quiet stayed open.  It
        waits the link's timeout, measured from the SUBSCRIBE's round
        trip before any hole needed timing -- not the ceiling."""
        cluster, sub, got, home, found_at = _quiet_stream_run()
        timeout = sub._sequence._links[home].timeout
        assert timeout < REPLAY_RETRY_COOLDOWN_S
        cluster.run_until(found_at + timeout - 0.001)
        assert got == ["m1", "m3"] and sub.gap_requests == 1
        cluster.run_until(found_at + timeout + 0.25)  # one WAN round trip
        assert got == ["m1", "m3", "m2"]
        assert sub.gap_requests == 2
        # Filled: the timer stops, and five quiet seconds ask nothing more.
        cluster.run_for(5.0)
        assert sub.gap_requests == 2
        assert cluster.servers[home].reliability.replayed_messages == 1

    def test_dropping_the_channel_ends_the_retry_timer(self):
        cluster, sub, got, home, _ = _quiet_stream_run()
        sub.unsubscribe("arena")
        cluster.run_for(5.0)
        assert got == ["m1", "m3"] and sub.gap_requests == 1

    def test_detaching_the_server_ends_the_retry_timer(self):
        cluster, sub, got, home, _ = _quiet_stream_run()
        assert sub._detach_server(home) == ["arena"]
        cluster.run_for(5.0)
        assert got == ["m1", "m3"] and sub.gap_requests == 1
        # The hole is still the resume point: a re-SUBSCRIBE fills it.
        sub.subscribe("arena", sub._subs["arena"].callback)
        cluster.run_for(1.0)
        assert got == ["m1", "m3", "m2"] and sub.gap_requests == 1

    def test_a_client_that_left_is_not_woken_by_its_timer(self):
        cluster, sub, got, home, _ = _quiet_stream_run()
        sub.disconnect()
        cluster.run_for(5.0)
        assert sub.gap_requests == 1


class TestEvictionTruthfulness:
    def test_replay_after_eviction_reports_the_gap(self):
        """An evicted prefix yields a truthful gap notice, not silence:
        the client is told which seqs are gone and stops chasing them.
        The outage overflows the shipped cache budget by four messages."""
        tracer = Tracer()
        config = DynamothConfig(delivery_tier="at_least_once")
        away = REPLAY_CACHE_MAX_MSGS + 4
        cluster, sub, got, server = _outage_run(config, away=away, tracer=tracer)
        # Only the newest budget's worth of the stream survived the cache.
        live = {"live0", "live1", "live2"}
        assert set(got) == live | {f"away{i}" for i in range(4, away)}
        gaps = [e for e in tracer.events if isinstance(e, ReplayGapEvent)]
        assert gaps, "eviction produced no gap event"
        assert server.reliability.unrecoverable_gaps >= 1
        # The client wrote the evicted seqs off instead of retrying forever:
        # a later in-order publication triggers no further replay request.
        assert sub.unrecoverable >= 4
        asked = sub.gap_requests
        cluster.clients["pub"].publish("arena", "later", 60)
        cluster.run_for(3.0)
        assert got[-1] == "later"
        assert sub.gap_requests == asked


class TestPlantedReplayBugIsSilent:
    def test_ignored_replay_requests_are_fully_silent(self):
        """The bug ``repro.check`` plants with ``break_reliable_replay``:
        brokers stamp but never answer a replay or resume request -- no
        entries, no gap notice, nothing.  (This is the seeded loss the
        gap-free oracle must detect.)"""
        tracer = Tracer()
        config = DynamothConfig(delivery_tier="at_least_once")
        genuine = BrokerReliability.replay_slice
        with _planted_bugs(Scenario(seed=0, break_reliable_replay=True)):
            assert BrokerReliability.replay_slice is not genuine
            cluster, sub, got, server = _outage_run(config, tracer=tracer)
            # A post-reconnect publication makes the seq hole visible to
            # the client (the outage messages alone just never arrive).
            late = cluster.create_client("late-pub")
            late.publish("arena", "post", 60)
            cluster.run_for(3.0)
        # The bug leaves with the block: the product has no switch for it.
        assert BrokerReliability.replay_slice is genuine
        # The outage window is simply lost.
        assert set(got) == {"live0", "live1", "live2", "post"}
        assert server.reliability.replayed_messages == 0
        assert not any(
            isinstance(e, (ReplayEvent, ReplayGapEvent)) for e in tracer.events
        )
        # The client noticed the hole and asked; the ask went unanswered.
        assert sub.gap_requests >= 1


def _arrives_as_duplicate(client: DynamothClient, sender: str, number: int) -> bool:
    """Feed one delivery of ``sender:number``; was it suppressed as a dup?"""
    delivered, duplicates = client.delivered, client.duplicates
    envelope = AppEnvelope(f"{sender}:{number}", sender, number, "body", 0, 0.0)
    client.receive(Delivery("arena", envelope, 10, "s1"), "s1")
    assert (client.delivered - delivered) + (client.duplicates - duplicates) == 1
    return client.duplicates > duplicates


def _bare_client() -> DynamothClient:
    return DynamothClient(Simulator(), "c", ConsistentHashRing(["s1"]), RngRegistry(0))


WINDOW = DynamothClient.DEDUP_WINDOW


class TestDedupWindowRegression:
    def test_replay_refreshes_the_dedup_window(self):
        """Regression: under active replay the same message keeps arriving,
        and a window that other traffic moves expires it *between* two
        replays -- the second replay double-counts.  The per-sender window
        needs no refresh: only its sender's new numbers move it, so other
        senders' traffic, replays included, never ages the message out."""
        client = _bare_client()
        assert not _arrives_as_duplicate(client, "pub", 1)
        for burst in range(3):
            for n in range(1, WINDOW + 1):
                assert not _arrives_as_duplicate(client, f"other{burst}", n)
            assert _arrives_as_duplicate(client, "other0", 1)
            # Each replay of pub:1 is still recognized.
            assert _arrives_as_duplicate(client, "pub", 1)
        # pub's own numbers keep it in until it is WINDOW below the highest.
        assert not _arrives_as_duplicate(client, "pub", WINDOW)
        assert _arrives_as_duplicate(client, "pub", 1)

    def test_expiry_still_works_once_replays_stop(self):
        client = _bare_client()
        assert not _arrives_as_duplicate(client, "pub", 1)
        assert not _arrives_as_duplicate(client, "pub", WINDOW)
        assert _arrives_as_duplicate(client, "pub", 1)
        assert not _arrives_as_duplicate(client, "pub", WINDOW + 1)
        # pub:1 is now WINDOW below the highest: it left the window.
        assert not _arrives_as_duplicate(client, "pub", 1)
