"""Regression tests for chained-migration forwarding (straggler registry)."""

import pytest

from repro.core.messages import PlanPush
from repro.core.plan import ChannelMapping, ReplicationMode
from tests.conftest import make_static_cluster


def single(server):
    return ChannelMapping(ReplicationMode.SINGLE, (server,))


class TestChainedMigrations:
    def test_subscriber_behind_two_moves_still_served(self):
        """Channel hops home -> B -> C before the (quiet) subscriber hears
        about either move; publications to C must still reach it."""
        cluster = make_static_cluster(initial_servers=3)
        servers = sorted(cluster.servers)
        home = cluster.plan.ring.lookup("ch")
        b, c = [s for s in servers if s != home][:2]

        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("ch", lambda ch, body, env: got.append(body))
        pub = cluster.create_client("pub")
        cluster.run_for(1.0)

        # two quick moves with NO publications in between: the subscriber
        # has no way to learn anything yet
        cluster.set_static_mapping("ch", single(b))
        cluster.run_for(0.2)
        cluster.set_static_mapping("ch", single(c))
        cluster.run_for(0.2)

        # a publisher that already knows the final mapping
        from repro.core.messages import MappingNotice

        pub.receive(MappingNotice("ch", cluster.plan.mapping("ch")), "test")
        pub.publish("ch", "find-me", 30)
        cluster.run_for(3.0)
        assert got == ["find-me"]
        # and the subscriber has converged onto the final server
        assert sub.subscription_servers("ch") == {c}

    def test_pushed_straggler_snapshot_seeds_new_dispatcher(self):
        """A dispatcher that never saw the first move learns about its
        stragglers from the plan push payload."""
        cluster = make_static_cluster(initial_servers=3)
        servers = sorted(cluster.servers)
        d = cluster.dispatchers[servers[0]]
        plan = cluster.plan.evolve(mappings={"ch": single(servers[0])})
        push = PlanPush(plan, {"ch": {"ghost-server": cluster.sim.now + 30.0}})
        d.receive(push, "load-balancer")
        assert d._stragglers.entries["ch"]["ghost-server"] == pytest.approx(
            cluster.sim.now + 30.0
        )
        assert d._balancer_id == "load-balancer"

    def test_snapshot_never_seeds_self(self):
        cluster = make_static_cluster(initial_servers=2)
        servers = sorted(cluster.servers)
        d = cluster.dispatchers[servers[0]]
        plan = cluster.plan.evolve(mappings={"ch": single(servers[1])})
        push = PlanPush(plan, {"ch": {servers[0]: cluster.sim.now + 30.0}})
        d.receive(push, "lb")
        assert servers[0] not in d._stragglers.entries.get("ch", {})

    def test_drain_broadcast_reaches_balancer_tracker(self):
        """After a drain, the balancer must stop re-seeding the straggler
        into subsequent plan pushes (the forwarding-storm regression)."""
        from repro import BrokerConfig, DynamothCluster, DynamothConfig
        from repro.sim.timers import PeriodicTask

        config = DynamothConfig(
            max_servers=3, min_servers=2, t_wait_s=4.0, spawn_delay_s=1.0
        )
        broker = BrokerConfig(nominal_egress_bps=15_000.0, per_connection_bps=None)
        cluster = DynamothCluster(
            seed=23, config=config, broker_config=broker, initial_servers=2
        )
        home = cluster.plan.ring.lookup("hot0")
        second = next(
            f"hot{i}" for i in range(1, 300)
            if cluster.plan.ring.lookup(f"hot{i}") == home
        )
        for prefix, channel in (("a", "hot0"), ("b", second)):
            s = cluster.create_client(f"{prefix}-s")
            s.subscribe(channel, lambda *a: None)
            p = cluster.create_client(f"{prefix}-p")
            PeriodicTask(
                cluster.sim, 0.1, lambda now, p=p, c=channel: p.publish(c, "x", 1000)
            ).start()
        cluster.run_until(60.0)
        # well after the migrations: subscribers reconciled, drains
        # broadcast, so the balancer's tracker must be empty (or close)
        snapshot = cluster.balancer._stragglers.snapshot()
        lingering = {c: r for c, r in snapshot.items() if r}
        assert not lingering, f"undrained stragglers linger: {lingering}"
        # and steady-state forwarding has stopped
        before = sum(d.forwarded_publications for d in cluster.dispatchers.values())
        cluster.run_until(70.0)
        after = sum(d.forwarded_publications for d in cluster.dispatchers.values())
        assert after - before <= 2
