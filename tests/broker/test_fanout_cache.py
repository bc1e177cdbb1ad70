"""Fan-out cache correctness: invalidation under churn, rebalance and
crash/repair, plus the cached-vs-uncached byte-identity property.

The broker compiles each channel's subscriber walk (ids, connections,
pair states) into a reusable entry keyed by channel and guarded by the
transport's ``pair_epoch``.  The cache is a pure performance artifact:
every observable -- delivery sets, timings, trace bytes -- must be
identical when every publication rebuilds its entry from scratch, which
the tests force from their side (:func:`force_rebuilds`).
"""

from __future__ import annotations

from random import Random

from repro.broker.commands import (
    Delivery,
    PublishCmd,
    SubscribeCmd,
    UnsubscribeCmd,
)
from repro.broker.config import BrokerConfig
from repro.broker.server import PubSubServer
from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.obs.export import event_to_json
from repro.obs.trace import Tracer
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


class FakeClient(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)
        self.received = []

    def receive(self, message, src_id):
        self.received.append((self.sim.now, message))

    def deliveries(self):
        return [m for __, m in self.received if isinstance(m, Delivery)]


def build(sim, rng: Random, config=None, clients=4):
    net = Transport(
        sim, rng, lan_model=FixedLatency(0.0005), wan_model=FixedLatency(0.01)
    )
    config = config or BrokerConfig()
    server = PubSubServer(sim, "srv", config)
    net.register(server, config.actual_egress_bps)
    fakes = [FakeClient(sim, f"c{i}") for i in range(clients)]
    for c in fakes:
        net.register(c)
    return net, server, fakes


def force_rebuilds(server: PubSubServer) -> None:
    """Make ``server`` recompile the fan-out arrays on every publication.

    Drops the channel's compiled entry just before each ``PublishCmd``
    reaches ``receive``, which fans it out in the same frame, so the
    arrays are rebuilt through the production code path -- the reference
    the cached runs are compared against.
    """
    receive = server.receive

    def rebuilding(message, src_id):
        if isinstance(message, PublishCmd):
            server._fanout_cache.pop(message.channel, None)
        receive(message, src_id)

    server.receive = rebuilding


class TestChurnInvalidation:
    def test_publish_builds_then_hits(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        for c in clients[:2]:
            c.send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[3].send("srv", PublishCmd("news", "a", 100), 100)
        sim.run_until(2.0)
        stats = server.fanout_cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 0
        assert stats["channels"] == 1
        clients[3].send("srv", PublishCmd("news", "b", 100), 100)
        sim.run_until(3.0)
        stats = server.fanout_cache_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 1

    def test_subscribe_churn_invalidates_and_delivers_to_new_set(
        self, sim, rng: Random
    ):
        net, server, clients = build(sim, rng)
        clients[0].send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[3].send("srv", PublishCmd("news", "one", 100), 100)
        sim.run_until(2.0)
        # A new subscriber must drop the compiled entry...
        clients[1].send("srv", SubscribeCmd("news"), 64)
        sim.run_until(3.0)
        assert server.fanout_cache_stats()["invalidations"] == 1
        # ...and the next publish reaches the *new* subscriber set.
        clients[3].send("srv", PublishCmd("news", "two", 100), 100)
        sim.run_until(4.0)
        assert [d.payload for d in clients[0].deliveries()] == ["one", "two"]
        assert [d.payload for d in clients[1].deliveries()] == ["two"]
        assert server.fanout_cache_stats()["builds"] == 2

    def test_unsubscribe_invalidates(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        for c in clients[:2]:
            c.send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[3].send("srv", PublishCmd("news", "one", 100), 100)
        sim.run_until(2.0)
        clients[1].send("srv", UnsubscribeCmd("news"), 64)
        sim.run_until(3.0)
        clients[3].send("srv", PublishCmd("news", "two", 100), 100)
        sim.run_until(4.0)
        assert [d.payload for d in clients[1].deliveries()] == ["one"]
        assert [d.payload for d in clients[0].deliveries()] == ["one", "two"]
        assert server.fanout_cache_stats()["invalidations"] >= 1

    def test_disconnect_drops_cached_entry(self, sim, rng: Random):
        net, server, clients = build(sim, rng)
        for c in clients[:3]:
            c.send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        clients[3].send("srv", PublishCmd("news", "one", 100), 100)
        sim.run_until(2.0)
        server.disconnect("c2")
        clients[3].send("srv", PublishCmd("news", "two", 100), 100)
        sim.run_until(3.0)
        assert [d.payload for d in clients[2].deliveries()] == ["one"]
        for c in clients[:2]:
            assert [d.payload for d in c.deliveries()] == ["one", "two"]

    def test_forced_rebuild_never_hits(self, sim, rng: Random):
        # The reference side of the equivalence tests below is only a
        # reference if it really rebuilds on every publication.
        net, server, clients = build(sim, rng)
        force_rebuilds(server)
        clients[0].send("srv", SubscribeCmd("news"), 64)
        sim.run_until(1.0)
        for __ in range(3):
            clients[3].send("srv", PublishCmd("news", "x", 100), 100)
        sim.run_until(2.0)
        stats = server.fanout_cache_stats()
        assert stats["builds"] == 3
        assert stats["hits"] == 0
        assert len(clients[0].deliveries()) == 3


def _unit_run(cached: bool):
    """One deterministic churn-heavy unit run; returns delivery log."""
    sim = Simulator()
    rng = Random(7)
    net, server, clients = build(sim, rng, clients=6)
    if not cached:
        force_rebuilds(server)
    for i, c in enumerate(clients[:4]):
        c.send("srv", SubscribeCmd("news"), 64)
    sim.run_until(1.0)
    for i in range(10):
        clients[5].send("srv", PublishCmd("news", f"m{i}", 100), 100)
        if i == 4:
            clients[4].send("srv", SubscribeCmd("news"), 64)
        if i == 7:
            clients[0].send("srv", UnsubscribeCmd("news"), 64)
        sim.run_until(sim.now + 0.5)
    sim.run_until(30.0)
    return [
        (c.node_id, t, d.payload)
        for c in clients
        for t, d in ((t, m) for t, m in c.received if isinstance(m, Delivery))
    ]


class TestCachedUncachedEquivalence:
    def test_unit_deliveries_identical(self):
        assert _unit_run(True) == _unit_run(False)


# ----------------------------------------------------------------------
# Cluster level: rebalance plan pushes and crash + repair re-homing
# ----------------------------------------------------------------------
CHANNEL = "arena"


def _cluster(*, cached=True, tracer=None, seed=0):
    cluster = DynamothCluster(
        seed=seed,
        initial_servers=3,
        balancer=BALANCER_NONE,
        tracer=tracer,
    )
    if not cached:
        for server in cluster.servers.values():
            force_rebuilds(server)
    return cluster


def _stream(cluster, n_subscribers=3):
    received = {}
    for i in range(n_subscribers):
        client = cluster.create_client(f"sub{i}")
        received[client.node_id] = []
        client.subscribe(
            CHANNEL,
            lambda ch, body, env, cid=client.node_id: received[cid].append(body),
        )
    publisher = cluster.create_client("pub")
    return publisher, received


class TestClusterInvalidation:
    def test_rebalance_plan_push_reroutes_cached_channel(self):
        cluster = _cluster()
        publisher, received = _stream(cluster)
        cluster.run_for(1.0)
        sent = []
        for i in range(8):
            body = f"pre{i}"
            sent.append(body)
            publisher.publish(CHANNEL, body, 120)
            cluster.run_for(0.25)
        # Move the channel to a different broker mid-stream.
        old_home = cluster.plan.mapping(CHANNEL).servers[0]
        new_home = next(s for s in sorted(cluster.servers) if s != old_home)
        cluster.set_static_mapping(
            CHANNEL, ChannelMapping(ReplicationMode.SINGLE, (new_home,))
        )
        cluster.run_for(5.0)
        for i in range(8):
            body = f"post{i}"
            sent.append(body)
            publisher.publish(CHANNEL, body, 120)
            cluster.run_for(0.25)
        cluster.run_for(5.0)
        for cid, bodies in received.items():
            assert bodies == sent, f"{cid} diverged"
        # The new home compiled its own entry and served hits from it.
        stats = cluster.servers[new_home].fanout_cache_stats()
        assert stats["builds"] >= 1
        assert stats["hits"] >= 1

    def test_crash_and_repair_rehomes_without_stale_entries(self):
        # Plan repair lives in the balancer, and clients only notice a
        # hard crash via ping timeouts -- so this one runs a default
        # (balancer-enabled) cluster with pings on, not the static
        # harness.
        cluster = DynamothCluster(
            seed=0,
            initial_servers=3,
            config=DynamothConfig(client_ping_interval_s=1.0),
        )
        publisher, received = _stream(cluster)
        cluster.run_for(1.0)
        for i in range(5):
            publisher.publish(CHANNEL, f"pre{i}", 120)
            cluster.run_for(0.25)
        home = cluster.current_plan().mapping(CHANNEL).servers[0]
        assert cluster.servers[home].fanout_cache_stats()["builds"] >= 1
        cluster.crash_server(home)
        cluster.run_for(15.0)  # detection + plan repair + failover
        for i in range(8):
            publisher.publish(CHANNEL, f"post{i}", 120)
            cluster.run_for(0.25)
        cluster.run_for(5.0)
        # Every subscriber follows the repaired plan and sees the whole
        # post-repair stream exactly once, served by a fresh compiled
        # entry on the surviving broker.
        expected = [f"post{i}" for i in range(8)]
        for cid, bodies in received.items():
            post = [b for b in bodies if b.startswith("post")]
            assert post == expected, f"{cid} diverged after repair"
        # The ring entry may still name the dead server (clients re-home
        # via exclusion-aware lookup), so find the broker actually
        # carrying the subscriptions: it must be alive with a freshly
        # compiled fan-out entry.
        new_homes = [
            s
            for s in sorted(cluster.servers)
            if cluster.servers[s].subscriber_count(CHANNEL) > 0
        ]
        assert new_homes and home not in new_homes
        assert any(
            cluster.servers[s].fanout_cache_stats()["builds"] >= 1
            for s in new_homes
        )

    def test_trace_bytes_identical_cached_vs_uncached(self):
        def run(cached: bool) -> bytes:
            tracer = Tracer()
            cluster = _cluster(cached=cached, tracer=tracer)
            publisher, received = _stream(cluster)
            cluster.run_for(1.0)
            for i in range(6):
                publisher.publish(CHANNEL, f"m{i}", 120)
                cluster.run_for(0.5)
                if i == 2:
                    late = cluster.create_client("late")
                    received["late"] = []
                    late.subscribe(
                        CHANNEL, lambda ch, body, env: received["late"].append(body)
                    )
            cluster.run_for(5.0)
            lines = [event_to_json(e) for e in tracer.events]
            return ("\n".join(lines) + "\n").encode("utf-8")

        assert run(True) == run(False)
