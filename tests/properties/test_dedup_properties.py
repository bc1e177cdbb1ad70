"""Property-based tests for client-side exactly-once delivery."""

from hypothesis import given
from hypothesis import strategies as st

from repro.broker.commands import Delivery
from repro.core.client import DynamothClient
from repro.core.messages import AppEnvelope
from tests.helpers import make_bare_client


def make_client():
    sim, wire, client = make_bare_client(servers=["s1", "s2"])
    return sim, client


class TestDedupProperties:
    @given(
        ids=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300)
    )
    def test_each_unique_id_delivered_exactly_once(self, ids):
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for i in ids:
            envelope = AppEnvelope(f"m{i}", "peer", i, 0, 0.0)
            client.receive(Delivery("ch", envelope, 16, "s1"), "s1")
        assert sorted(delivered) == sorted({f"m{i}" for i in ids})
        assert client.duplicates == len(ids) - len(set(ids))

    @given(
        n_copies=st.integers(min_value=1, max_value=6),
        n_messages=st.integers(min_value=1, max_value=50),
    )
    def test_replication_fanout_always_collapses(self, n_copies, n_messages):
        """However many replicas forward the same publication, the
        application sees it once."""
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for m in range(n_messages):
            envelope = AppEnvelope(f"m{m}", "peer", m, 0, 0.0)
            for copy in range(n_copies):
                server = f"s{copy % 2 + 1}"
                client.receive(Delivery("ch", envelope, 16, server), server)
        assert len(delivered) == n_messages
        assert client.duplicates == n_messages * (n_copies - 1)

    def test_window_remembers_exactly_the_most_recent_ids(self, monkeypatch):
        """Memory is bounded: only the last DEDUP_WINDOW ids are held."""
        monkeypatch.setattr(DynamothClient, "DEDUP_WINDOW", 64)
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for i in range(64 + 20):
            envelope = AppEnvelope(f"m{i}", "peer", i, 0, 0.0)
            client.receive(Delivery("ch", envelope, 16, "s1"), "s1")
        # m20 is the oldest id still inside the window; m19 just left it.
        for i in (20, 19):
            envelope = AppEnvelope(f"m{i}", "peer", i, 0, 0.0)
            client.receive(Delivery("ch", envelope, 16, "s1"), "s1")
        assert delivered.count("m20") == 1
        assert delivered.count("m19") == 2

    def test_very_old_id_can_be_redelivered_after_eviction(self):
        """The window is finite: an id older than the window is forgotten.
        (In practice the plan-entry timers expire far sooner than 8k
        messages pass on a channel.)"""
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        first = AppEnvelope("ancient", "peer", 0, 0, 0.0)
        client.receive(Delivery("ch", first, 16, "s1"), "s1")
        for i in range(DynamothClient.DEDUP_WINDOW + 1):
            envelope = AppEnvelope(f"m{i}", "peer", i, 0, 0.0)
            client.receive(Delivery("ch", envelope, 16, "s1"), "s1")
        client.receive(Delivery("ch", first, 16, "s1"), "s1")
        assert delivered.count("ancient") == 2
