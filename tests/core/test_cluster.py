"""Tests for cluster wiring and the elastic server pool."""

import pytest

from repro import BrokerConfig, DynamothCluster, DynamothConfig
from repro.core.cluster import BALANCER_DYNAMOTH, BALANCER_NONE
from repro.core.messages import MappingNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from tests.conftest import make_static_cluster


class TestConstruction:
    def test_initial_servers_materialized(self):
        cluster = make_static_cluster(initial_servers=3)
        assert sorted(cluster.servers) == ["pub1", "pub2", "pub3"]
        assert set(cluster.dispatchers) == set(cluster.servers)
        assert set(cluster.llas) == set(cluster.servers)

    def test_bootstrap_plan_covers_initial_servers(self):
        cluster = make_static_cluster(initial_servers=2)
        assert cluster.plan.version == 0
        assert set(cluster.plan.active_servers) == {"pub1", "pub2"}

    def test_invalid_balancer_kind_rejected(self):
        with pytest.raises(ValueError):
            DynamothCluster(balancer="nonsense")

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            DynamothCluster(initial_servers=0)

    def test_balancer_kinds_construct(self):
        for kind in (BALANCER_DYNAMOTH, BALANCER_NONE):
            cluster = DynamothCluster(initial_servers=2, balancer=kind)
            assert (cluster.balancer is None) == (kind == BALANCER_NONE)
        comparator = DynamothCluster(
            config=DynamothConfig(rebalance_policy="consistent_hashing")
        )
        assert comparator.balancer.policy.name == "consistent_hashing"

    def test_deterministic_given_seed(self):
        def run(seed):
            cluster = make_static_cluster(seed=seed)
            got = []
            sub = cluster.create_client("s")
            sub.subscribe("ch", lambda ch, body, env: got.append(cluster.sim.now))
            pub = cluster.create_client("p")
            cluster.run_for(1.0)
            pub.publish("ch", "x", 100)
            cluster.run_for(2.0)
            return got

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestClients:
    def test_create_and_remove_client(self):
        cluster = make_static_cluster()
        client = cluster.create_client("c1")
        assert cluster.transport.actor("c1") is client
        cluster.remove_client("c1")
        assert cluster.transport.actor("c1") is None
        cluster.remove_client("c1")  # idempotent

    def test_client_uses_cluster_timeouts(self):
        config = DynamothConfig(plan_entry_timeout_s=7.0)
        cluster = DynamothCluster(balancer=BALANCER_NONE, config=config)
        client = cluster.create_client("c")
        learned = ChannelMapping(ReplicationMode.SINGLE, ("pub1",), 1)
        client.receive(MappingNotice("ch", learned), "pub1")
        cluster.run_for(6.0)
        client.publish("ch", "x", 10)  # activity: the entry's timer restarts
        assert client.known_mapping("ch") == learned
        cluster.run_for(7.5)
        client.publish("ch", "x", 10)  # idle past the cluster's 7 s: dropped
        assert client.known_mapping("ch") is None


class TestStaticMappings:
    def test_static_mapping_requires_no_balancer(self):
        cluster = DynamothCluster(initial_servers=2, balancer=BALANCER_DYNAMOTH)
        with pytest.raises(RuntimeError):
            cluster.set_static_mapping(
                "ch", ChannelMapping(ReplicationMode.SINGLE, ("pub1",))
            )

    def test_static_mapping_pushes_to_dispatchers(self):
        cluster = make_static_cluster(initial_servers=2)
        cluster.set_static_mapping(
            "ch", ChannelMapping(ReplicationMode.SINGLE, ("pub2",))
        )
        for dispatcher in cluster.dispatchers.values():
            assert dispatcher.plan.version == 1
            assert dispatcher.plan.mapping("ch").servers == ("pub2",)


class TestDecommissionLifecycle:
    def test_decommissioned_server_disappears(self):
        config = DynamothConfig(
            max_servers=3,
            min_servers=1,
            t_wait_s=5.0,
            spawn_delay_s=1.0,
            plan_entry_timeout_s=5.0,
        )
        broker = BrokerConfig(nominal_egress_bps=15_000.0, per_connection_bps=None)
        cluster = DynamothCluster(
            seed=1, config=config, broker_config=broker, initial_servers=1
        )
        from repro.sim.timers import PeriodicTask

        sub = cluster.create_client("s")
        sub.subscribe("hot", lambda *a: None)
        pub = cluster.create_client("p")
        task = PeriodicTask(cluster.sim, 0.05, lambda now: pub.publish("hot", "x", 1000))
        task.start()
        cluster.run_until(30.0)
        peak = cluster.server_count
        task.stop()
        cluster.run_until(150.0)
        assert cluster.server_count < peak
        # the decommissioned node is gone from the transport
        gone = set(f"pub{i+1}" for i in range(peak)) - set(cluster.servers)
        for server_id in gone:
            assert cluster.transport.actor(server_id) is None
            assert cluster.transport.actor(f"dispatcher@{server_id}") is None

    def test_clients_survive_decommission(self):
        """Subscribers on a decommissioned server reconnect elsewhere and
        keep receiving publications."""
        config = DynamothConfig(
            max_servers=3, min_servers=1, t_wait_s=5.0,
            spawn_delay_s=1.0, plan_entry_timeout_s=5.0,
        )
        broker = BrokerConfig(nominal_egress_bps=15_000.0, per_connection_bps=None)
        cluster = DynamothCluster(
            seed=2, config=config, broker_config=broker, initial_servers=1
        )
        from repro.sim.timers import PeriodicTask

        got = []
        sub = cluster.create_client("s")
        sub.subscribe("hot", lambda ch, body, env: got.append(cluster.sim.now))
        pub = cluster.create_client("p")
        burst = PeriodicTask(cluster.sim, 0.05, lambda now: pub.publish("hot", "x", 1000))
        burst.start()
        cluster.run_until(30.0)
        burst.stop()
        cluster.run_until(150.0)  # scale-down happens here
        # now publish again: the subscriber must still be reachable
        got.clear()
        trickle = PeriodicTask(cluster.sim, 1.0, lambda now: pub.publish("hot", "y", 100))
        trickle.start()
        cluster.run_until(170.0)
        assert len(got) >= 15
