"""Tests for the Dynamoth load balancer actor (through a live cluster)."""

import pytest

from repro import BrokerConfig, DynamothCluster, DynamothConfig
from repro.core.cluster import BALANCER_DYNAMOTH
from repro.core.messages import PlanPush
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.sim.timers import PeriodicTask


def build_cluster(
    *,
    nominal=20_000.0,
    initial_servers=2,
    max_servers=4,
    min_servers=None,
    t_wait=5.0,
    spawn_delay=2.0,
    seed=0,
    **config_kwargs,
):
    config = DynamothConfig(
        max_servers=max_servers,
        min_servers=min_servers if min_servers is not None else initial_servers,
        t_wait_s=t_wait,
        spawn_delay_s=spawn_delay,
        **config_kwargs,
    )
    broker = BrokerConfig(nominal_egress_bps=nominal, per_connection_bps=None)
    return DynamothCluster(
        seed=seed,
        config=config,
        broker_config=broker,
        initial_servers=initial_servers,
        balancer=BALANCER_DYNAMOTH,
    )


def constant_load(cluster, channel, pubs_per_s, payload, n_subs=1, prefix="w"):
    """Drive a constant publication flow on one channel."""
    subs = []
    for i in range(n_subs):
        c = cluster.create_client(f"{prefix}-sub{i}")
        c.subscribe(channel, lambda *a: None)
        subs.append(c)
    pub = cluster.create_client(f"{prefix}-pub")
    task = PeriodicTask(
        cluster.sim, 1.0 / pubs_per_s, lambda now: pub.publish(channel, "x", payload)
    )
    task.start()
    return task


class TestHighLoadPath:
    def test_overload_triggers_migration_plan(self):
        cluster = build_cluster(nominal=20_000.0, initial_servers=2)
        # Two hot channels that CH may co-locate; force them hot enough
        # that one server overloads (2 x 12kB/s on 20kB nominal).
        home = cluster.plan.ring.lookup("h1")
        # find a second channel hashing to the same server
        other = next(
            f"h{i}" for i in range(2, 200) if cluster.plan.ring.lookup(f"h{i}") == home
        )
        constant_load(cluster, "h1", 12, 1000, prefix="a")
        constant_load(cluster, other, 12, 1000, prefix="b")
        cluster.run_until(30.0)
        lb = cluster.balancer
        assert lb.plan.version > 0
        # the two channels must no longer share a server
        s1 = set(lb.plan.mapping("h1").servers)
        s2 = set(lb.plan.mapping(other).servers)
        assert s1.isdisjoint(s2)
        ratios = [lb.view.load_ratio(s) for s in lb.active_servers]
        assert max(ratios) < 1.0

    def test_spawn_when_migration_cannot_help(self):
        cluster = build_cluster(nominal=20_000.0, initial_servers=1, max_servers=3)
        constant_load(cluster, "only", 25, 1000)  # 25 kB/s > capacity
        cluster.run_until(30.0)
        assert cluster.server_count >= 2
        kinds = [e.kind for e in cluster.balancer.events]
        assert "spawn-request" in kinds
        assert "server-ready" in kinds

    def test_t_wait_limits_plan_rate(self):
        cluster = build_cluster(nominal=5_000.0, initial_servers=2, t_wait=8.0)
        constant_load(cluster, "x1", 20, 1000, prefix="a")
        constant_load(cluster, "x2", 20, 1000, prefix="b")
        cluster.run_until(40.0)
        times = cluster.balancer.rebalance_times()
        gaps = [b - a for a, b in zip(times, times[1:])]
        # consecutive plans must respect T_wait, except immediately after
        # a spawned server joins the pool (pool-change fast path)
        ready = [e.time for e in cluster.balancer.events if e.kind == "server-ready"]
        for a, b in zip(times, times[1:]):
            if b - a < 8.0:
                assert any(a < r <= b for r in ready)

    def test_max_servers_respected(self):
        cluster = build_cluster(nominal=2_000.0, initial_servers=1, max_servers=2)
        constant_load(cluster, "flood", 50, 1000)
        cluster.run_until(40.0)
        assert cluster.server_count <= 2


class TestLowLoadPath:
    def test_idle_extra_server_decommissioned(self):
        cluster = build_cluster(
            nominal=20_000.0,
            initial_servers=1,
            max_servers=3,
            min_servers=1,
            plan_entry_timeout_s=6.0,
        )
        # Phase 1: overload to force a spawn.
        task = constant_load(cluster, "surge", 30, 1000)
        cluster.run_until(40.0)
        peak = cluster.server_count
        assert peak >= 2
        # Phase 2: load vanishes; the extra server must eventually go.
        task.stop()
        cluster.run_until(120.0)
        assert cluster.server_count < peak
        kinds = [e.kind for e in cluster.balancer.events]
        assert "decommission" in kinds

    def test_bootstrap_server_never_decommissioned(self):
        cluster = build_cluster(nominal=50_000.0, initial_servers=2, min_servers=2)
        cluster.run_until(60.0)  # fully idle the whole time
        assert cluster.server_count == 2


class TestBookkeeping:
    def test_load_history_sampled_every_eval(self):
        cluster = build_cluster()
        cluster.run_until(10.0)
        lb = cluster.balancer
        assert len(lb.load_history) == 10
        t, ratios = lb.load_history[-1]
        assert set(ratios) == set(lb.active_servers)

    def test_unknown_message_raises(self):
        cluster = build_cluster()
        with pytest.raises(TypeError):
            cluster.balancer.receive(object(), "x")

    def test_restart_does_not_cancel_a_booting_replacement(self):
        """A restarted id is not the server the pending spawn is waiting for."""
        cluster = build_cluster(initial_servers=2, min_servers=2, spawn_delay=30.0)
        lb = cluster.balancer
        cluster.run_until(5.0)
        cluster.crash_server("pub2")
        cluster.run_until(12.0)
        assert "pub2" in lb.failed_servers
        assert lb.pending_spawns == 1  # the replacement, pub3, is booting
        cluster.restart_server("pub2")
        assert "pub2" in lb.active_servers
        assert lb.pending_spawns == 1  # ... and still is
        assert "pub3" not in cluster.servers
        cluster.run_until(45.0)
        assert "pub3" in lb.active_servers
        assert lb.pending_spawns == 0

    def test_average_load_ratio_accessor(self):
        cluster = build_cluster()
        cluster.run_until(5.0)
        assert cluster.balancer.average_load_ratio() == pytest.approx(0.0, abs=0.05)


def single(server):
    return ChannelMapping(ReplicationMode.SINGLE, (server,))


def record_pushes(cluster):
    """Every PlanPush the balancer sends from now on (a spy on the transport)."""
    pushes = []
    send = cluster.transport.send

    def spy(src, dst, message, size):
        if src == cluster.balancer.node_id and isinstance(message, PlanPush):
            pushes.append(message)
        return send(src, dst, message, size)

    cluster.transport.send = spy
    return pushes


class TestAdoption:
    """Rebalance and repair adopt a plan through one path, ``_adopt``."""

    def strand_straggler(self, cluster):
        """Move ``ch`` pub1 -> pub2: pub1 is ch's straggler for 30 s."""
        lb = cluster.balancer
        lb._adopt({"ch": single("pub1")}, cluster.sim.now)
        lb._adopt({"ch": single("pub2")}, cluster.sim.now)
        assert "pub1" in lb._stragglers.entries["ch"]
        return lb

    def test_rebalance_push_never_names_a_dead_server(self):
        cluster = build_cluster(initial_servers=3, min_servers=3)
        cluster.run_until(5.0)
        lb = self.strand_straggler(cluster)
        lb.failed_servers.add("pub1")
        pushes = record_pushes(cluster)
        lb._adopt({"other": single("pub3")}, cluster.sim.now)
        assert pushes and all(push.failed_servers == ("pub1",) for push in pushes)
        assert all("pub1" not in r for p in pushes for r in p.stragglers.values())

    def test_repair_push_never_names_a_dead_server(self):
        cluster = build_cluster(initial_servers=3, min_servers=3)
        cluster.run_until(5.0)
        lb = self.strand_straggler(cluster)
        # crash before pub1's dispatcher can learn of the move and drain
        cluster.crash_server("pub1")
        pushes = record_pushes(cluster)
        cluster.run_until(15.0)
        assert "pub1" in lb.failed_servers
        repairs = [p for p in pushes if "pub1" in p.failed_servers]
        assert repairs
        assert all("pub1" not in r for p in repairs for r in p.stragglers.values())
