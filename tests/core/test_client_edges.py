"""Additional client-library edge cases."""

import pytest

from repro.broker.commands import Delivery
from repro.core.messages import AppEnvelope, SwitchNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from tests.conftest import make_static_cluster


@pytest.fixture
def cluster():
    return make_static_cluster(initial_servers=3)


class TestPublisherOnlyClients:
    def test_publisher_learns_mapping_without_subscribing(self, cluster):
        home = cluster.plan.ring.lookup("ch")
        other = next(s for s in sorted(cluster.servers) if s != home)
        cluster.set_static_mapping("ch", ChannelMapping(ReplicationMode.SINGLE, (other,)))
        pub = cluster.create_client("pub")
        pub.publish("ch", "first", 20)  # goes to CH home, gets redirected
        cluster.run_for(2.0)
        assert pub.known_mapping("ch").servers == (other,)
        before = cluster.servers[home].publish_count
        pub.publish("ch", "second", 20)
        cluster.run_for(2.0)
        # second publish goes straight to the right server
        assert cluster.servers[home].publish_count == before

    def test_switch_notice_updates_plan_even_without_subscription(self, cluster):
        client = cluster.create_client("c")
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("pub2",), version=4)
        envelope = AppEnvelope(
            "dispatcher@pub1:1", "dispatcher@pub1", 1, SwitchNotice("ch", mapping), 4, 0.0
        )
        client.receive(Delivery("ch", envelope, 64, "pub1"), "pub1")
        assert client.known_mapping("ch").servers == ("pub2",)
        assert client.switches == 1


class TestDeliveryEdgeCases:
    def test_non_envelope_payload_ignored(self, cluster):
        client = cluster.create_client("c")
        client.subscribe("ch", lambda *a: pytest.fail("must not be called"))
        client.receive(Delivery("ch", "raw-bytes", 10, "pub1"), "pub1")
        assert client.delivered == 0

    def test_delivery_without_subscription_still_counts_and_dedups(self, cluster):
        """Between unsubscribe and server processing, deliveries may still
        arrive; they are deduped and dropped silently."""
        seen = []
        client = cluster.create_client("c")
        client.subscribe("ch", lambda ch, body, env: seen.append(body))
        client.unsubscribe("ch")
        envelope = AppEnvelope("peer:1", "peer", 1, "tail", 0, 0.0)
        client.receive(Delivery("ch", envelope, 10, "pub1"), "pub1")
        assert seen == []
        assert client.delivered == 1  # counted at the transport level

    def test_unknown_message_type_raises(self, cluster):
        client = cluster.create_client("c")
        with pytest.raises(TypeError):
            client.receive(object(), "x")


class TestPublishRouting:
    def test_ch_fallback_publish_goes_to_one_server(self, cluster):
        pub = cluster.create_client("p")
        pub.publish("fresh", "x", 10)
        cluster.run_for(1.0)
        counts = [s.publish_count for s in cluster.servers.values()]
        assert sum(counts) == 1

    def test_message_ids_are_unique_and_ordered(self, cluster):
        pub = cluster.create_client("p")
        ids = [pub.publish("ch", i, 10) for i in range(20)]
        assert len(set(ids)) == 20
        assert all(mid.startswith("p:") for mid in ids)

    def test_publish_returns_message_id_used_in_envelope(self, cluster):
        got = []
        sub = cluster.create_client("s")
        sub.subscribe("ch", lambda ch, body, env: got.append(env.msg_id))
        cluster.run_for(1.0)
        pub = cluster.create_client("p")
        msg_id = pub.publish("ch", "x", 10)
        cluster.run_for(2.0)
        assert got == [msg_id]


class TestReconnectBehaviour:
    def test_reconnect_skips_channels_unsubscribed_meanwhile(self, cluster):
        from repro.broker.commands import ConnectionClosed

        client = cluster.create_client("c")
        client.subscribe("ch", lambda *a: None)
        cluster.run_for(1.0)
        home = cluster.plan.ring.lookup("ch")
        # emulate the server actually dropping the connection, then the
        # notification reaching the client
        cluster.servers[home].disconnect("c")
        client.receive(ConnectionClosed(home, "output-buffer-overflow"), home)
        client.unsubscribe("ch")  # user gives up before the reconnect fires
        cluster.run_for(2.0)
        assert not client.is_subscribed("ch")
        assert cluster.servers[home].subscriber_count("ch") == 0

    def test_disconnect_counter(self, cluster):
        from repro.broker.commands import ConnectionClosed

        client = cluster.create_client("c")
        client.subscribe("ch", lambda *a: None)
        cluster.run_for(1.0)
        home = cluster.plan.ring.lookup("ch")
        client.receive(ConnectionClosed(home, "server-shutdown"), home)
        assert client.disconnects == 1
        # the plan entry pointing at the dead server was dropped
        assert client.known_mapping("ch") is None
