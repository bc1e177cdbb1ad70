"""Unit tests for the fault injector against a live (static) cluster."""

import pytest

from repro.faults import (
    ChaosSchedule,
    CrashServer,
    DegradeLink,
    FaultInjector,
    PartitionNodes,
    StallLla,
)
from tests.conftest import make_static_cluster


class TestArming:
    def test_arm_installs_plane_and_returns_timeline(self):
        """``arm()`` returns the timeline; the plane is on the transport
        exactly while it has rules, so a crash-only schedule never pays it."""
        cluster = make_static_cluster()
        injector = FaultInjector(cluster, ChaosSchedule.single_crash("pub1", at=5.0))
        timeline = injector.arm()
        assert timeline == [CrashServer(5.0, "pub1")]
        assert cluster.transport.fault_plane is None
        cluster.run_until(6.0)
        assert injector.crashes == 1
        assert cluster.transport.fault_plane is None

    def test_plane_installed_from_first_rule_to_last_heal(self):
        cluster = make_static_cluster()
        transport = cluster.transport
        schedule = ChaosSchedule(
            (
                PartitionNodes(1.0, "pub1", "pub2", until=3.0),
                DegradeLink(2.0, "pub1", "client", loss=0.5, until=4.0),
                DegradeLink(6.0, "pub2", "client", jitter_s=0.01, until=7.0),
            )
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        installed = {}
        for t in (0.5, 1.5, 2.5, 3.5, 4.5, 6.5, 7.5):
            cluster.run_until(t)
            installed[t] = transport.fault_plane
        plane = injector.plane
        assert installed == {
            0.5: None,  # armed, no rule yet
            1.5: plane,  # partition
            2.5: plane,  # partition + degrade
            3.5: plane,  # partition healed, the overlapping degrade holds it
            4.5: None,  # both ended
            6.5: plane,  # a later fault brings it back
            7.5: None,
        }

    def test_heal_network_drops_every_rule_and_the_plane(self):
        cluster = make_static_cluster()
        schedule = ChaosSchedule(
            (PartitionNodes(1.0, "pub1", "pub2"), DegradeLink(1.0, "pub1", "client", loss=1.0))
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        cluster.run_until(2.0)
        assert cluster.transport.fault_plane is injector.plane
        injector.heal_network()
        assert not injector.plane.active
        assert cluster.transport.fault_plane is None

    def test_double_arm_rejected(self):
        cluster = make_static_cluster()
        injector = FaultInjector(cluster, ChaosSchedule())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_idle_injector_changes_nothing(self):
        def run_one(with_injector):
            cluster = make_static_cluster(seed=11)
            if with_injector:
                FaultInjector(cluster, ChaosSchedule()).arm()
            got = []
            sub = cluster.create_client("sub")
            sub.subscribe("room", lambda ch, body, env: got.append(env.msg_id))
            pub = cluster.create_client("pub")
            cluster.run_for(1.0)
            for i in range(10):
                pub.publish("room", f"m{i}", 50)
                cluster.run_for(0.5)
            return got, cluster.sim.events_processed

        plain, armed = run_one(False), run_one(True)
        assert plain == armed  # byte-identical run


class TestCrashAndRestart:
    def test_crash_executes_at_scheduled_time(self):
        cluster = make_static_cluster()
        injector = FaultInjector(cluster, ChaosSchedule.single_crash("pub2", at=3.0))
        injector.arm()
        cluster.run_until(2.9)
        assert "pub2" in cluster.servers
        cluster.run_until(3.1)
        assert "pub2" not in cluster.servers
        assert cluster.crashed_servers == {"pub2"}
        assert injector.crashes == 1

    def test_restart_revives_the_server(self):
        cluster = make_static_cluster()
        injector = FaultInjector(
            cluster, ChaosSchedule.single_crash("pub2", at=3.0, restart_after_s=4.0)
        )
        injector.arm()
        cluster.run_until(10.0)
        assert "pub2" in cluster.servers
        assert cluster.crashed_servers == set()
        assert injector.restarts == 1

    def test_crash_of_already_dead_server_is_skipped(self):
        cluster = make_static_cluster()
        schedule = ChaosSchedule(
            (CrashServer(3.0, "pub2"), CrashServer(4.0, "pub2"))
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        cluster.run_until(5.0)
        assert injector.crashes == 1

    def test_messages_to_crashed_server_are_dropped(self):
        cluster = make_static_cluster()
        home = cluster.plan.ring.lookup("room")
        injector = FaultInjector(cluster, ChaosSchedule.single_crash(home, at=1.0))
        injector.arm()
        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("room", lambda ch, body, env: got.append(body))
        pub = cluster.create_client("pub")
        cluster.run_until(2.0)
        pub.publish("room", "void", 50)  # static cluster: nobody repairs
        cluster.run_until(4.0)
        assert got == []


class TestNetworkActions:
    def test_partition_covers_the_whole_machine(self):
        cluster = make_static_cluster()
        injector = FaultInjector(
            cluster, ChaosSchedule((PartitionNodes(1.0, "pub1", "client"),))
        )
        injector.arm()
        cluster.run_until(1.5)
        for node in cluster.colocated_node_ids("pub1"):
            assert injector.plane.apply(node, "client") is None
        assert injector.partitions == 1

    def test_partition_heals_at_until(self):
        cluster = make_static_cluster()
        injector = FaultInjector(
            cluster,
            ChaosSchedule((PartitionNodes(1.0, "pub1", "pub2", until=2.0),)),
        )
        injector.arm()
        cluster.run_until(1.5)
        assert injector.plane.apply("pub1", "pub2") is None
        cluster.run_until(2.5)
        assert injector.plane.apply("pub1", "pub2") == 0.0
        assert injector.heals == 1

    def test_degrade_clears_at_until(self):
        cluster = make_static_cluster()
        injector = FaultInjector(
            cluster,
            ChaosSchedule(
                (DegradeLink(1.0, "pub1", "pub2", loss=1.0, until=2.0),)
            ),
        )
        injector.arm()
        cluster.run_until(1.5)
        assert injector.plane.active
        cluster.run_until(2.5)
        assert not injector.plane.active
        assert injector.link_faults == 2  # set + clear

    def test_lla_stall_and_resume(self):
        cluster = make_static_cluster()
        injector = FaultInjector(
            cluster, ChaosSchedule((StallLla(1.0, "pub1", duration_s=2.0),))
        )
        injector.arm()
        cluster.run_until(1.5)
        assert not cluster.llas["pub1"].running
        cluster.run_until(4.0)
        assert cluster.llas["pub1"].running
        assert injector.lla_stalls == 1
