"""Tests for the consistent-hashing baseline: the one ``LoadBalancer`` on
``DynamothConfig(rebalance_policy="consistent_hashing")``."""

import pytest

from repro import BrokerConfig, DynamothCluster, DynamothConfig
from repro.core.plan import ReplicationMode
from repro.sim.timers import PeriodicTask


def build(nominal=15_000.0, initial_servers=1, max_servers=4, seed=0):
    config = DynamothConfig(
        max_servers=max_servers,
        min_servers=initial_servers,
        t_wait_s=5.0,
        spawn_delay_s=2.0,
        rebalance_policy="consistent_hashing",
    )
    broker = BrokerConfig(nominal_egress_bps=nominal, per_connection_bps=None)
    return DynamothCluster(
        seed=seed,
        config=config,
        broker_config=broker,
        initial_servers=initial_servers,
    )


def load(cluster, channel, pubs_per_s, payload, prefix):
    sub = cluster.create_client(f"{prefix}-sub")
    sub.subscribe(channel, lambda *a: None)
    pub = cluster.create_client(f"{prefix}-pub")
    task = PeriodicTask(
        cluster.sim, 1.0 / pubs_per_s, lambda now: pub.publish(channel, "x", payload)
    )
    task.start()
    return task


class TestScaleOut:
    def test_overload_spawns_server_and_rehashes(self):
        cluster = build()
        for i in range(4):
            load(cluster, f"ch{i}", 8, 1000, prefix=f"w{i}")  # 32 kB/s total
        cluster.run_until(40.0)
        lb = cluster.balancer
        assert cluster.server_count >= 2
        assert lb.plan.version >= 1
        # every rebalance corresponds to a server joining the ring
        rebalances = [e for e in lb.events if e.kind == "rebalance"]
        readies = [e for e in lb.events if e.kind == "server-ready"]
        assert len(rebalances) == len(readies)

    def test_mappings_follow_the_ring(self):
        cluster = build()
        for i in range(4):
            load(cluster, f"ch{i}", 8, 1000, prefix=f"w{i}")
        cluster.run_until(40.0)
        lb = cluster.balancer
        for channel in (f"ch{i}" for i in range(4)):
            mapping = lb.plan.mapping(channel)
            assert mapping.mode is ReplicationMode.SINGLE
            assert mapping.servers == (lb.policy.ring.lookup(channel),)

    def test_never_replicates_channels(self):
        cluster = build()
        load(cluster, "hot", 30, 1000, prefix="hot")  # one oversized channel
        cluster.run_until(40.0)
        mapping = cluster.balancer.plan.mapping("hot")
        assert mapping.mode is ReplicationMode.SINGLE

    def test_never_scales_down(self):
        cluster = build()
        task = load(cluster, "surge", 30, 1000, prefix="s")
        cluster.run_until(40.0)
        peak = cluster.server_count
        task.stop()
        cluster.run_until(120.0)
        assert cluster.server_count == peak  # CH has no scale-down path

    def test_respects_max_servers(self):
        cluster = build(nominal=3_000.0, max_servers=2)
        load(cluster, "flood", 40, 1000, prefix="f")
        cluster.run_until(40.0)
        assert cluster.server_count <= 2

    def test_unknown_message_raises(self):
        cluster = build()
        with pytest.raises(TypeError):
            cluster.balancer.receive(object(), "x")
