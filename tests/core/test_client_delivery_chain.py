"""The client's Delivery chain, composed at construction.

sequence/gap stage -> per-sender dedup -> causal gate -> the one delivery
tail.  The stages themselves are unit-tested in test_reliability.py; here
a bare client (recording wire, no cluster) shows which of them a
configuration builds and that everything released or flushed reaches the
application through the same tail, in the pinned order.
"""

from __future__ import annotations

import pytest

import repro.core.client as client_module
from repro.broker.commands import Delivery, PublishCmd, ReplayGapNotice, ReplayRequest
from repro.core.client import DynamothClient
from repro.core.config import DynamothConfig
from repro.core.messages import AppEnvelope
from repro.core.reliability import ReliabilityConfig
from repro.obs.trace import CausalTimeoutEvent, DeliveryEvent, Tracer
from tests.helpers import make_bare_client, make_static_cluster, python_calls_by_function


def make_client(**kwargs):
    sim, wire, client = make_bare_client("me", **kwargs)
    return sim, client


def stamped(sender: str, pub_seq: int, deps=(), *, seq=None, server="s1") -> Delivery:
    envelope = AppEnvelope(
        f"{sender}:{pub_seq}", sender, pub_seq, None, 0, 0.0, False, pub_seq, tuple(deps)
    )
    return Delivery("ch", envelope, 16, server, seq, 1)


class TestComposition:
    def test_plain_client_builds_no_stage_and_no_recovery(self, monkeypatch):
        """at_most_once with probing off: the chain is receive's own frame."""

        def forbidden(*args, **kwargs):
            raise AssertionError("constructed for a run that cannot reach it")

        for name in ("SequenceStage", "CausalGate", "ClientRecovery"):
            monkeypatch.setattr(client_module, name, forbidden)
        sim, bare = make_client()
        clustered = make_static_cluster().create_client("c")
        for client in (bare, clustered):
            assert client._sequence is None
            assert client._gate is None
            assert client._recovery is None

    @pytest.mark.parametrize(
        "config, sequence, gate, recovery",
        [
            (DynamothConfig(delivery_tier="at_least_once"), True, False, False),
            (DynamothConfig(delivery_tier="exactly_once", causal_order=True), True, True, False),
            (DynamothConfig(causal_order=True), False, True, False),
            (DynamothConfig(client_ping_interval_s=1.0), False, False, True),
        ],
    )
    def test_each_decision_is_made_once_by_the_config(self, config, sequence, gate, recovery):
        client = make_static_cluster(config=config).create_client("c")
        assert (client._sequence is not None) == sequence
        assert (client._gate is not None) == gate
        assert (client._recovery is not None) == recovery

    def test_cluster_clients_share_the_cluster_config_object(self):
        cluster = make_static_cluster()
        assert cluster.create_client("c")._config is cluster.config


class TestSequenceStageInTheChain:
    def test_gap_sends_one_replay_request_and_counts_it(self):
        sim, client = make_client(reliability=ReliabilityConfig("at_least_once"))
        client.subscribe("ch", lambda channel, body, envelope: None)
        client.receive(stamped("a", 1, seq=1), "s1")
        client.receive(stamped("a", 4, seq=4), "s1")
        (request,) = client.transport.messages(ReplayRequest)
        assert request == ReplayRequest("ch", 1, (2, 3))
        assert request.wire_size == 32 + 2 * 8
        assert client.gap_requests == 1
        assert client.delivered == 2
        client.receive(ReplayGapNotice("s1", "ch", 1, 3), "s1")
        assert client.unrecoverable == 2
        # Written off, so the retry timer the request started finds no hole
        # when it fires: it asks nothing further and is not rescheduled.
        sim.run()
        assert client.gap_requests == 1
        assert sim.now == 1.0

    def test_retry_timer_asks_again_until_the_hole_is_filled(self):
        sim, client = make_client(reliability=ReliabilityConfig("at_least_once"))
        client.subscribe("ch", lambda channel, body, envelope: None)
        client.receive(stamped("a", 1, seq=1), "s1")
        client.receive(stamped("a", 3, seq=3), "s1")
        sim.run_until(2.5)  # nothing arrives: the timer fires at 1.0 and 2.0
        assert client.transport.times(ReplayRequest) == [0.0, 1.0, 2.0]
        assert client.transport.messages(ReplayRequest) == [ReplayRequest("ch", 1, (2,))] * 3
        client.receive(stamped("a", 2, seq=2), "s1")
        sim.run()
        assert client.gap_requests == 3
        assert sim.now == 3.0  # the firing that found no hole was the last

    def test_stale_replays_never_cycle_the_dedup_window(self):
        """exactly_once drops a below-watermark seq on the stream alone, and
        no traffic but a sender's own new numbers moves its window."""
        window = DynamothClient.DEDUP_WINDOW
        sim, client = make_client(reliability=ReliabilityConfig("exactly_once"))
        client.receive(stamped("a", 1, seq=1), "s1")
        client.receive(stamped("a", 2, seq=2), "s1")
        for n in range(3, window + 8):  # stale seq 1, carrying numbers never heard
            client.receive(stamped("replay", n, seq=1), "s1")
        assert (client.delivered, client.duplicates) == (2, window + 5)
        assert "replay" not in client._windows
        # a:1 is still remembered: its copy on another stream is a duplicate.
        client.receive(stamped("a", 1, seq=1, server="s2"), "s2")
        assert (client.delivered, client.duplicates) == (2, window + 6)


class TestPredictedDelivery:
    """An in-order, causally ready arrival is settled in ``receive``'s own
    frame; a hole or a park still reaches the stage that owns it."""

    def make_reliable_client(self):
        sim, client = make_client(reliability=ReliabilityConfig("exactly_once", causal_order=True))
        seen = []
        client.subscribe("ch", lambda ch, body, env: seen.append(env.msg_id))
        client.receive(stamped("a", 1, seq=1), "s1")  # first contact: both stages
        return client, seen

    @staticmethod
    def reliability_calls(client, delivery):
        calls = python_calls_by_function(lambda: client.receive(delivery, delivery.server_id))
        return sorted(name for path, _, name in calls if path.endswith("/core/reliability.py"))

    def test_in_order_ready_delivery_makes_no_reliability_call(self):
        client, seen = self.make_reliable_client()
        assert self.reliability_calls(client, stamped("a", 2, seq=2)) == []
        assert self.reliability_calls(client, stamped("b", 1, [("a", 2)], seq=3)) == []
        assert seen == ["a:1", "a:2", "b:1"]
        stream = client._sequence.streams["s1", "ch"]
        assert (stream.max_seq, stream.missing) == (3, {})
        assert client._gate.channels["ch"].delivered == {"a": 2, "b": 1}

    def test_predicted_arrival_resets_the_retry_backoff_as_observe_does(self):
        sim, client = make_client(reliability=ReliabilityConfig("at_least_once"))
        client.subscribe("ch", lambda ch, body, env: None)
        client.receive(stamped("a", 1, seq=1), "s1")
        client.receive(stamped("a", 3, seq=3), "s1")
        sim.run_until(1.5)  # the retry timer fired once with the hole open
        stream = client._sequence.streams["s1", "ch"]
        client.receive(ReplayGapNotice("s1", "ch", 1, 2), "s1")  # written off
        assert (stream.missing, stream.backoff) == ({}, 1)
        assert self.reliability_calls(client, stamped("a", 4, seq=4)) == []
        assert (stream.max_seq, stream.backoff) == (4, 0)

    def test_a_hole_still_reaches_the_sequence_stage(self):
        client, seen = self.make_reliable_client()
        assert "observe" in self.reliability_calls(client, stamped("a", 2, seq=3))
        assert client.transport.messages(ReplayRequest) == [ReplayRequest("ch", 1, (2,))]
        # The fill, and the next arrival while a hole is open, are observed too.
        assert "observe" in self.reliability_calls(client, stamped("b", 1, seq=2))
        assert seen == ["a:1", "a:2", "b:1"]

    def test_a_park_still_reaches_the_causal_gate(self):
        client, seen = self.make_reliable_client()
        assert self.reliability_calls(client, stamped("b", 1, [("a", 2)], seq=2)) == ["admit"]
        assert seen == ["a:1"]
        # With a delivery parked, the next arrival is the gate's: it releases.
        assert self.reliability_calls(client, stamped("a", 2, seq=3)) == ["admit"]
        assert seen == ["a:1", "a:2", "b:1"]
        assert not client._gate.channels["ch"].parked


class TestOneTail:
    def make_causal_client(self):
        tracer = Tracer()
        sim, client = make_client(
            tracer=tracer,
            reliability=ReliabilityConfig(causal_order=True),
        )
        seen = []
        client.on_delivery = lambda ch, env, delivery: seen.append(("hook", env.msg_id))
        client.subscribe("ch", lambda ch, body, env: seen.append(("app", env.msg_id)))
        return sim, client, tracer, seen

    @staticmethod
    def trace(tracer):
        """DeliveryEvents by msg id, CausalTimeoutEvents by flushed count."""
        out = []
        for event in tracer.events:
            if isinstance(event, DeliveryEvent):
                out.append(event.msg_id)
            elif isinstance(event, CausalTimeoutEvent):
                out.append(("timeout", event.channel, event.flushed))
        return out

    def test_arrival_first_then_its_releases(self):
        sim, client, tracer, seen = self.make_causal_client()
        client.receive(stamped("b", 1, [("a", 1)]), "s1")
        client.receive(stamped("a", 2), "s1")
        assert client.delivered == 0 and seen == []
        client.receive(stamped("a", 1), "s1")
        assert self.trace(tracer) == ["a:1", "b:1", "a:2"]
        # Each delivery runs the whole tail before the next one starts.
        assert seen == [
            ("hook", "a:1"), ("app", "a:1"),
            ("hook", "b:1"), ("app", "b:1"),
            ("hook", "a:2"), ("app", "a:2"),
        ]
        assert client.delivered == 3

    def test_park_timeout_event_precedes_the_flush_in_arrival_order(self):
        sim, client, tracer, seen = self.make_causal_client()
        client.receive(stamped("a", 3), "s1")
        client.receive(stamped("b", 1, [("a", 2)]), "s1")
        sim.run_until(1.9)
        assert client.causal_timeouts == 0
        sim.run_until(2.1)
        assert client.causal_timeouts == 1
        assert self.trace(tracer) == [("timeout", "ch", 2), "a:3", "b:1"]
        assert [who for who in seen if who[0] == "app"] == [("app", "a:3"), ("app", "b:1")]
        assert tracer.events[-1].t == 2.0

    def test_unsubscribe_mid_park_cancels_the_flush(self):
        sim, client, tracer, seen = self.make_causal_client()
        client.receive(stamped("a", 2), "s1")
        client.unsubscribe("ch")
        sim.run_until(5.0)
        assert client.causal_timeouts == 0
        assert client.delivered == 0

    def test_flush_after_shutdown_is_dropped(self):
        sim, client, tracer, seen = self.make_causal_client()
        client.receive(stamped("a", 2), "s1")
        client.shutdown()
        sim.run_until(5.0)
        assert client.causal_timeouts == 0 and client.delivered == 0

    def test_publish_carries_the_gate_stamp(self):
        sim, client, tracer, seen = self.make_causal_client()
        client.receive(stamped("a", 1), "s1")
        client.publish("ch", "x", 10)
        client.publish("ch", "y", 10)
        envelopes = [cmd.payload for cmd in client.transport.messages(PublishCmd)]
        assert [(e.pub_seq, e.deps) for e in envelopes] == [
            (1, (("a", 1),)),
            (2, (("a", 1),)),
        ]
