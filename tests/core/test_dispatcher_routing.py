"""Dispatcher forwarding-target selection per replication mode.

A misrouted publication is forwarded as its publisher should have sent
it: to ``ChannelMapping.publish_targets``, drawn from the dispatcher's
own stream."""

import random

import pytest

from repro.core.plan import ChannelMapping, ReplicationMode
from tests.conftest import make_static_cluster


@pytest.fixture
def cluster():
    return make_static_cluster(initial_servers=3)


class TestForwardTargets:
    def _dispatcher(self, cluster):
        return cluster.dispatchers[sorted(cluster.servers)[0]]

    def test_single_forwards_to_the_one_server(self, cluster):
        d = self._dispatcher(cluster)
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("pub2",))
        assert mapping.publish_targets(d._rng) == ("pub2",)

    def test_all_publishers_forwards_to_every_replica(self, cluster):
        """A misrouted publication under all-publishers must reach every
        replica -- each subscriber listens on only one of them."""
        d = self._dispatcher(cluster)
        mapping = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("pub1", "pub2", "pub3"))
        assert set(mapping.publish_targets(d._rng)) == {"pub1", "pub2", "pub3"}

    def test_all_subscribers_forwards_to_one_random_replica(self, cluster):
        """Under all-subscribers every subscriber covers all replicas, so
        one forwarded copy suffices; the choice is randomized for balance."""
        d = self._dispatcher(cluster)
        mapping = ChannelMapping(
            ReplicationMode.ALL_SUBSCRIBERS, ("pub1", "pub2", "pub3")
        )
        picks = {mapping.publish_targets(d._rng)[0] for __ in range(60)}
        assert picks == {"pub1", "pub2", "pub3"}
        assert all(len(mapping.publish_targets(d._rng)) == 1 for __ in range(5))


class TestWrongServerEndToEnd:
    def test_misrouted_all_publishers_publication_reaches_all_subscribers(self, cluster):
        servers = tuple(sorted(cluster.servers))
        cluster.set_static_mapping(
            "hot", ChannelMapping(ReplicationMode.ALL_PUBLISHERS, servers)
        )
        got = {}
        subs = []
        for i in range(6):
            c = cluster.create_client(f"s{i}")
            got[c.node_id] = []
            c.subscribe("hot", lambda ch, body, env, cid=c.node_id: got[cid].append(body))
            subs.append(c)
        cluster.run_for(3.0)  # subscribers spread over replicas
        spread = {s: cluster.servers[s].subscriber_count("hot") for s in servers}
        assert sum(spread.values()) == 6

        # a brand-new publisher uses the CH fallback -- possibly a server
        # that is in the mapping but receives only 1 of the 3 copies
        pub = cluster.create_client("naive-pub")
        pub.publish("hot", "everyone?", 30)
        cluster.run_for(3.0)
        for cid, messages in got.items():
            assert messages == ["everyone?"], f"{cid} missed the publication"


class TestLowLoadInterruption:
    def test_load_spike_interrupts_scale_down(self):
        """Section III-B.4: 'If at any point the global load ratio
        increases ... the low-load rebalancing will be interrupted.'
        A drained-but-not-yet-dead pool member must be rentable again
        immediately when load returns."""
        from repro import BrokerConfig, DynamothCluster, DynamothConfig
        from repro.sim.timers import PeriodicTask

        config = DynamothConfig(
            max_servers=3, min_servers=1, t_wait_s=5.0,
            spawn_delay_s=2.0, plan_entry_timeout_s=6.0,
        )
        broker = BrokerConfig(nominal_egress_bps=15_000.0, per_connection_bps=None)
        cluster = DynamothCluster(
            seed=17, config=config, broker_config=broker, initial_servers=1
        )
        # two co-located hot channels: splittable by migration
        home = cluster.plan.ring.lookup("hot0")
        second = next(
            f"hot{i}" for i in range(1, 300)
            if cluster.plan.ring.lookup(f"hot{i}") == home
        )
        tasks = []
        for prefix, channel in (("a", "hot0"), ("b", second)):
            s = cluster.create_client(f"{prefix}-s")
            s.subscribe(channel, lambda *a: None)
            p = cluster.create_client(f"{prefix}-p")
            task = PeriodicTask(
                cluster.sim, 0.05, lambda now, p=p, c=channel: p.publish(c, "x", 550)
            )
            task.start()
            tasks.append((p, task))
        cluster.run_until(30.0)
        peak = cluster.server_count
        assert peak >= 2
        # quiet long enough for a scale-down to start, then load returns
        for __, task in tasks:
            task.stop()
        cluster.run_until(60.0)
        for p, __ in tasks:
            channel = "hot0" if p.node_id.startswith("a") else second
            task = PeriodicTask(
                cluster.sim, 0.05, lambda now, p=p, c=channel: p.publish(c, "x", 550)
            )
            task.start()
        cluster.run_until(130.0)
        # the system ends up with capacity again (>= 2 servers) and is not
        # wedged in a half-drained state
        assert cluster.server_count >= 2
        lb = cluster.balancer
        ratios = [lb.view.load_ratio(s) for s in lb.active_servers]
        assert max(ratios) < 1.1
