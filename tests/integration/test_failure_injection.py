"""Failure injection: overloads, kills and shutdowns, observed end to end."""

from repro import BrokerConfig
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.sim.timers import PeriodicTask
from tests.conftest import make_static_cluster


class TestOutputBufferOverflow:
    def _flooded_cluster(self):
        broker = BrokerConfig(
            per_connection_bps=30_000.0,       # ~100 msg/s of 300 B
            output_buffer_limit_bytes=60_000,  # ~2 s of backlog
        )
        return make_static_cluster(broker_config=broker)

    def test_overwhelmed_subscriber_is_killed_and_reconnects(self):
        cluster = self._flooded_cluster()
        got = []
        sub = cluster.create_client("victim")
        sub.subscribe("flood", lambda ch, body, env: got.append(body))
        pub = cluster.create_client("firehose")
        task = PeriodicTask(
            cluster.sim, 1.0 / 300.0, lambda now: pub.publish("flood", "x", 250)
        )
        cluster.run_for(1.0)
        task.start()
        cluster.run_until(15.0)
        task.stop()
        cluster.run_for(2.0)

        home = cluster.plan.ring.lookup("flood")
        server = cluster.servers[home]
        assert server.killed_connections >= 1
        assert sub.disconnects >= 1
        # it reconnected and is subscribed again at the end
        assert sub.is_subscribed("flood")
        assert server.subscriber_count("flood") == 1
        # and it did receive a substantial part of the stream, just not all
        assert len(got) > 100

    def test_other_subscribers_unaffected_by_one_kill(self):
        cluster = self._flooded_cluster()
        # a healthy subscriber on a different, quiet channel of the same server
        home = cluster.plan.ring.lookup("flood")
        quiet_channel = next(
            f"quiet{i}" for i in range(100)
            if cluster.plan.ring.lookup(f"quiet{i}") == home
        )
        quiet_got = []
        quiet = cluster.create_client("bystander")
        quiet.subscribe(quiet_channel, lambda ch, body, env: quiet_got.append(body))
        victim = cluster.create_client("victim")
        victim.subscribe("flood", lambda *a: None)
        pub = cluster.create_client("firehose")
        task = PeriodicTask(
            cluster.sim, 1.0 / 300.0, lambda now: pub.publish("flood", "x", 250)
        )
        quiet_pub = cluster.create_client("quiet-pub")
        quiet_task = PeriodicTask(
            cluster.sim, 0.5, lambda now: quiet_pub.publish(quiet_channel, "q", 50)
        )
        cluster.run_for(1.0)
        task.start()
        quiet_task.start()
        cluster.run_until(12.0)
        task.stop()
        quiet_task.stop()
        cluster.run_for(2.0)
        assert quiet.disconnects == 0
        assert len(quiet_got) >= 18  # ~2/s for ~10s, none lost


class TestServerShutdown:
    def test_shutdown_notifies_and_clients_recover_via_fallback(self):
        cluster = make_static_cluster(initial_servers=3)
        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("ch", lambda ch, body, env: got.append(body))
        cluster.run_for(1.0)
        home = cluster.plan.ring.lookup("ch")
        # Move the channel away, then hard-kill the old server after the
        # drain (simulating a decommission).
        other = next(s for s in sorted(cluster.servers) if s != home)
        pub = cluster.create_client("pub")
        cluster.set_static_mapping("ch", ChannelMapping(ReplicationMode.SINGLE, (other,)))
        pub.publish("ch", "before", 50)
        cluster.run_for(3.0)
        server = cluster.servers[home]
        server.close_all_connections()
        server.shutdown()
        cluster.run_for(1.0)
        pub.publish("ch", "after", 50)
        cluster.run_for(2.0)
        assert got == ["before", "after"]

    def test_messages_to_dead_server_are_dropped_not_crashing(self):
        cluster = make_static_cluster(initial_servers=2)
        pub = cluster.create_client("pub")
        home = cluster.plan.ring.lookup("ch")
        cluster.servers[home].shutdown()
        pub.publish("ch", "void", 50)
        cluster.run_for(1.0)  # no exception; message counted as dropped
        assert cluster.transport.messages_dropped >= 1


class TestOverloadRecovery:
    def test_latency_recovers_after_burst(self):
        """An egress backlog drains once the burst ends; latency returns
        to the WAN baseline."""
        broker = BrokerConfig(nominal_egress_bps=20_000.0, per_connection_bps=None)
        cluster = make_static_cluster(broker_config=broker)
        rtts = []
        client = cluster.create_client("c")
        client.on_response_time = lambda rtt, now: rtts.append((now, rtt))
        client.subscribe("room", lambda *a: None)
        cluster.run_for(1.0)
        # burst: 100 x 2kB instantly = 200 kB on a 24 kB/s NIC (~8 s backlog)
        for __ in range(100):
            client.publish("room", "burst", 2000)
        cluster.run_for(30.0)
        client.publish("room", "probe", 100)
        cluster.run_for(2.0)
        burst_max = max(rtt for __, rtt in rtts[:-1])
        probe_rtt = rtts[-1][1]
        assert burst_max > 1.0       # the backlog was real
        assert probe_rtt < 0.3       # and it fully drained
