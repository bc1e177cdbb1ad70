"""Tests for the Dynamoth client library (through a static cluster)."""

from random import Random

import pytest

from repro.broker.commands import SubscribeCmd
from repro.core.config import DynamothConfig
from repro.core.messages import MappingNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.core.reliability import ReliabilityConfig
from repro.sim.rng import derive_seed
from tests.conftest import make_static_cluster
from tests.helpers import make_bare_client


@pytest.fixture
def cluster():
    return make_static_cluster(initial_servers=3)


def drain(cluster, seconds=1.5):
    cluster.run_for(seconds)


class TestBasicApi:
    def test_publish_reaches_subscriber(self, cluster):
        got = []
        sub = cluster.create_client("sub")
        pub = cluster.create_client("pub")
        sub.subscribe("news", lambda ch, body, env: got.append(body))
        drain(cluster)
        pub.publish("news", "hello", 50)
        drain(cluster)
        assert got == ["hello"]

    def test_subscriber_callback_gets_envelope(self, cluster):
        envs = []
        sub = cluster.create_client("sub")
        sub.subscribe("news", lambda ch, body, env: envs.append(env))
        drain(cluster)
        pub = cluster.create_client("pub")
        msg_id = pub.publish("news", "x", 10)
        drain(cluster)
        assert envs[0].msg_id == msg_id
        assert envs[0].sender == "pub"

    def test_unsubscribe_stops_delivery(self, cluster):
        got = []
        sub = cluster.create_client("sub")
        pub = cluster.create_client("pub")
        sub.subscribe("news", lambda ch, body, env: got.append(body))
        drain(cluster)
        sub.unsubscribe("news")
        drain(cluster)
        pub.publish("news", "late", 10)
        drain(cluster)
        assert got == []
        assert not sub.is_subscribed("news")

    def test_unsubscribe_unknown_channel_is_noop(self, cluster):
        cluster.create_client("c").unsubscribe("nothing")

    def test_publisher_is_not_subscriber_by_default(self, cluster):
        got = []
        pub = cluster.create_client("pub")
        pub.publish("news", "x", 10)
        drain(cluster)
        assert got == []

    def test_own_message_response_time_hook(self, cluster):
        rtts = []
        client = cluster.create_client("c")
        client.on_response_time = lambda ch, rtt, now: rtts.append(rtt)
        client.subscribe("room", lambda *a: None)
        drain(cluster)
        client.publish("room", "echo", 10)
        drain(cluster)
        assert len(rtts) == 1
        assert 0 < rtts[0] < 1.0

    def test_resubscribe_replaces_callback(self, cluster):
        first, second = [], []
        sub = cluster.create_client("sub")
        sub.subscribe("ch", lambda ch, body, env: first.append(body))
        sub.subscribe("ch", lambda ch, body, env: second.append(body))
        drain(cluster)
        cluster.create_client("pub").publish("ch", "x", 10)
        drain(cluster)
        assert first == []
        assert second == ["x"]

    def test_disconnect_cleans_up(self, cluster):
        sub = cluster.create_client("sub")
        sub.subscribe("ch", lambda *a: None)
        drain(cluster)
        home = cluster.plan.ring.lookup("ch")
        assert cluster.servers[home].subscriber_count("ch") == 1
        sub.disconnect()
        drain(cluster)
        assert cluster.servers[home].subscriber_count("ch") == 0


class TestLocalPlan:
    def test_fallback_is_consistent_hashing(self, cluster):
        client = cluster.create_client("c")
        assert client.known_mapping("ch") is None
        client.publish("ch", "x", 10)
        home = cluster.plan.ring.lookup("ch")
        drain(cluster)
        assert cluster.servers[home].publish_count == 1

    def test_mapping_notice_updates_plan(self, cluster):
        client = cluster.create_client("c")
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("pub2",), version=3)
        client.receive(MappingNotice("ch", mapping), "dispatcher@pub1")
        assert client.known_mapping("ch").servers == ("pub2",)
        assert client.redirects == 1

    def test_stale_notice_ignored(self, cluster):
        client = cluster.create_client("c")
        newer = ChannelMapping(ReplicationMode.SINGLE, ("pub2",), version=5)
        older = ChannelMapping(ReplicationMode.SINGLE, ("pub3",), version=2)
        client.receive(MappingNotice("ch", newer), "d")
        client.receive(MappingNotice("ch", older), "d")
        assert client.known_mapping("ch").servers == ("pub2",)

    def test_idle_entry_expires_when_not_subscribed(self, cluster):
        client = cluster.create_client("c")
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("pub2",), version=1)
        client.receive(MappingNotice("ch", mapping), "d")
        cluster.run_for(cluster.config.plan_entry_timeout_s + 1.0)
        # next resolution falls back to consistent hashing
        client.publish("ch", "x", 10)
        assert client.known_mapping("ch") is None

    def test_entry_survives_while_subscribed(self, cluster):
        client = cluster.create_client("c")
        client.subscribe("ch", lambda *a: None)
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("pub2",), version=1)
        client.receive(MappingNotice("ch", mapping), "d")
        cluster.run_for(cluster.config.plan_entry_timeout_s + 5.0)
        assert client.known_mapping("ch") is not None

    def test_activity_refreshes_entry(self, cluster):
        client = cluster.create_client("c")
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("pub2",), version=1)
        client.receive(MappingNotice("ch", mapping), "d")
        timeout = cluster.config.plan_entry_timeout_s
        for __ in range(3):
            cluster.run_for(timeout * 0.7)
            client.publish("ch", "keepalive", 10)
        assert client.known_mapping("ch") is not None


class TestReplicationRouting:
    def test_all_subscribers_subscription_covers_all_replicas(self, cluster):
        servers = tuple(sorted(cluster.servers))
        cluster.set_static_mapping(
            "hot", ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, servers)
        )
        sub = cluster.create_client("sub")
        sub.subscribe("hot", lambda *a: None)
        drain(cluster, 3.0)
        assert sub.subscription_servers("hot") == set(servers)
        for server in servers:
            assert cluster.servers[server].subscriber_count("hot") == 1

    def test_all_publishers_publish_goes_everywhere(self, cluster):
        servers = tuple(sorted(cluster.servers))
        cluster.set_static_mapping(
            "hot", ChannelMapping(ReplicationMode.ALL_PUBLISHERS, servers)
        )
        pub = cluster.create_client("pub")
        pub.publish("hot", "warm-up", 10)  # learns mapping via redirect
        drain(cluster, 3.0)
        # Count direct (non-forwarded) copies of the next publication on
        # each server; dispatcher transition forwarding may add forwarded
        # copies on top, which do not matter here.
        direct = {s: 0 for s in servers}
        for server in servers:
            def observer(ch, pid, payload, size, s=server):
                if payload.body == "fanned" and not payload.forwarded:
                    direct[s] += 1
            cluster.servers[server].add_observer(observer)
        pub.publish("hot", "fanned", 10)
        drain(cluster)
        assert direct == {s: 1 for s in servers}

    def test_all_publishers_subscriber_receives_once(self, cluster):
        servers = tuple(sorted(cluster.servers))
        cluster.set_static_mapping(
            "hot", ChannelMapping(ReplicationMode.ALL_PUBLISHERS, servers)
        )
        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("hot", lambda ch, body, env: got.append(body))
        pub = cluster.create_client("pub")
        drain(cluster, 3.0)
        pub.publish("hot", "once", 10)
        drain(cluster, 2.0)
        assert got == ["once"]

    def test_dedup_counter_tracks_suppressed_copies(self, cluster):
        """A subscriber on all replicas + publisher sending to all must
        still deliver exactly once (dedup absorbs n-1 copies)."""
        servers = tuple(sorted(cluster.servers))
        cluster.set_static_mapping(
            "hot", ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, servers)
        )
        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("hot", lambda ch, body, env: got.append(body))
        drain(cluster, 3.0)
        # Simulate a confused publisher that floods every replica.
        from repro.broker.commands import PublishCmd
        from repro.core.messages import AppEnvelope

        env = AppEnvelope("rogue:1", "rogue", 1, "spam", 1, cluster.sim.now)
        rogue = cluster.create_client("rogue")
        for server in servers:
            rogue.send(server, PublishCmd("hot", env, 42), 42)
        drain(cluster, 2.0)
        assert got == ["spam"]
        # one delivery per replica (plus any transition-window forwards),
        # all but one suppressed by the message-id dedup
        assert sub.duplicates >= len(servers) - 1


class TestChFallbackConvergence:
    """Regression: unknown channels route via CH and converge on plan pushes."""

    def test_unknown_channel_converges_after_plan_push(self, cluster):
        got = []
        sub = cluster.create_client("s")
        sub.subscribe("ch", lambda ch, body, env: got.append(body))
        pub = cluster.create_client("c")
        drain(cluster)
        home = cluster.plan.ring.lookup("ch")
        assert pub.known_mapping("ch") is None  # CH fallback, no plan entry
        pub.publish("ch", "one", 10)
        drain(cluster)
        assert got == ["one"]

        # Move the channel.  The publisher still aims at the old home;
        # the dispatcher there forwards the message and sends a
        # MappingNotice, after which the client has converged.
        other = next(s for s in sorted(cluster.servers) if s != home)
        cluster.set_static_mapping(
            "ch", ChannelMapping(ReplicationMode.SINGLE, (other,))
        )
        drain(cluster)
        pub.publish("ch", "two", 10)
        drain(cluster, 3.0)
        assert got == ["one", "two"]  # forwarded, not lost
        assert pub.known_mapping("ch").servers == (other,)  # converged
        assert sub.subscription_servers("ch") == {other}

        # Converged: the old home sees no further traffic for the channel.
        old_home_before = cluster.servers[home].publish_count
        pub.publish("ch", "three", 10)
        drain(cluster)
        assert got == ["one", "two", "three"]
        assert cluster.servers[home].publish_count == old_home_before


class TestPerClientStateOnFirstUse:
    """State most clients never use is not built at construction."""

    def test_stream_opens_at_the_first_draw_not_before(self):
        seed = 7
        cluster = make_static_cluster(seed=seed, initial_servers=3)
        got = []
        sub = cluster.create_client("sub0")
        sub.subscribe("plain", lambda ch, body, env: got.append(body))
        drain(cluster)
        sub.publish("plain", "x", 10)
        drain(cluster)
        assert got == ["x"]
        assert "client:sub0" not in cluster.rng  # SINGLE mappings never draw

        servers = tuple(sorted(cluster.servers))
        cluster.set_static_mapping(
            "wide", ChannelMapping(ReplicationMode.ALL_PUBLISHERS, servers, 1)
        )
        drain(cluster)
        # Learn the mapping first (a fallback subscriber is redirected),
        # then the ALL_PUBLISHERS pick is this stream's first draw.
        sub.subscribe("wide", lambda *a: None)
        drain(cluster)
        assert "client:sub0" in cluster.rng
        expected = Random(derive_seed(seed, "client:sub0")).choice(servers)
        assert sub.subscription_servers("wide") == {expected}

    def test_own_attributes_live_in_slots(self, cluster):
        client = cluster.create_client("c")
        assert "delivered" not in vars(client) and "_subs" not in vars(client)
        # Actor's handful stay in the (key-sharing) instance dict ...
        assert vars(client)["node_id"] == "c"
        # ... and the hooks tests and harnesses assign still assign.
        seen = []
        client.on_delivery = lambda channel, envelope, delivery: seen.append(channel)
        client.on_response_time = lambda channel, rtt, now: None
        client.subscribe("ch", lambda *a: None)
        drain(cluster)
        client.publish("ch", "x", 10)
        drain(cluster)
        assert seen == ["ch"] and client.delivered == 1


class TestSubscribeHandshake:
    """The SUBSCRIBE round trips gap repair is timed from."""

    def test_an_at_most_once_client_without_probing_holds_no_table(self):
        _, wire, client = make_bare_client()
        wire.live.add("s1")
        client.subscribe("a", lambda *a: None)
        assert client._sequence is None and client._recovery is None

    def test_an_acked_subscribe_samples_its_link(self):
        sim, wire, client = make_bare_client(
            reliability=ReliabilityConfig(delivery_tier="exactly_once")
        )
        wire.live.add("s1")
        client.subscribe("a", lambda *a: None)
        sim.run()
        stage = client._sequence
        assert stage._handshakes == {} and stage._links["s1"].srtt == pytest.approx(0.01)

    def test_an_unacked_subscribe_leaves_no_entry_once_detached_or_unsubscribed(self):
        _, _, client = make_bare_client(
            reliability=ReliabilityConfig(delivery_tier="exactly_once")
        )
        stage = client._sequence
        client.subscribe("a", lambda *a: None)  # s1 never acks
        assert stage._handshakes == {("s1", "a"): (0.0, 1, 0)}
        assert client._detach_server("s1") == ["a"]
        assert stage._handshakes == {}
        client.subscribe("a", lambda *a: None)
        assert stage._handshakes == {("s1", "a"): (0.0, 1, 0)}
        client.unsubscribe("a")
        assert stage._handshakes == {}

    def test_a_lost_subscribe_is_resent_on_the_ping_tick_and_its_ack_is_no_sample(self):
        """A SUBSCRIBE lost on a lossy link used to strand a reliable stream
        for good.  The tick re-sends it once it is a ceiling old; the ack of
        a re-sent SUBSCRIBE matches either send (Karn), so it samples nothing."""
        sim, wire, client = make_bare_client(
            config=DynamothConfig(client_ping_interval_s=1.0),
            reliability=ReliabilityConfig(delivery_tier="exactly_once"),
        )
        wire.live.add("s1")
        send = wire.send

        def lose_the_first_subscribe(src, dst, message, size):
            if isinstance(message, SubscribeCmd) and not wire.messages(SubscribeCmd):
                wire.sent.append((sim.now, dst, message))
            else:
                send(src, dst, message, size)

        wire.send = lose_the_first_subscribe
        client.subscribe("a", lambda *a: None)
        sim.run_until(0.99)
        assert wire.times(SubscribeCmd) == [0.0]
        sim.run_until(5.5)
        assert wire.times(SubscribeCmd) == [0.0, 1.0]  # acked at 1.01: no more
        stage = client._sequence
        assert stage._handshakes == {} and "s1" not in stage._links  # never sampled
        assert client.subscription_servers("a") == {"s1"}
