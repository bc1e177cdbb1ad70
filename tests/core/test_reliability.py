"""Unit tests for the reliable-delivery primitives (repro.core.reliability).

State-machine tests: no cluster, no wire (the causal gate's park timer
runs on a bare simulator).  The broker/cluster integration
behaviour (replay on request, resume on subscribe, truthful gap notices)
lives in tests/integration/test_reliable_delivery.py.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.commands import Delivery, SubscribeAck, SubscribeCmd
from repro.core.config import DynamothConfig
from repro.core.messages import AppEnvelope
from repro.core.reliability import (
    CAUSAL_PARK_TIMEOUT_S,
    REPLAY_RETRY_COOLDOWN_S,
    BrokerReliability,
    CacheEntry,
    CausalGate,
    ChannelReplayCache,
    ParkTimeout,
    ReplaySlice,
    SequenceStage,
)
from repro.sim.kernel import Simulator
from tests.helpers import make_bare_client, make_static_cluster


def _entry(seq: int, size: int = 100) -> CacheEntry:
    return CacheEntry(seq, f"payload-{seq}", size, size + 40)


# ----------------------------------------------------------------------
# What the cluster builds from the config's two reliability fields
# ----------------------------------------------------------------------
class TestConfigFrom:
    def test_inert_config_maps_to_none(self):
        cluster = make_static_cluster()
        client = cluster.create_client("c")
        assert all(server.reliability is None for server in cluster.servers.values())
        assert client._sequence is None and client._gate is None

    def test_knobs_thread_through(self):
        for tier in ("at_least_once", "exactly_once"):
            config = DynamothConfig(delivery_tier=tier, causal_order=True)
            cluster = make_static_cluster(config=config)
            client = cluster.create_client("c")
            assert [server.reliability.epoch for server in cluster.servers.values()] == [1, 1, 1]
            assert client._sequence._drop_stale == (tier == "exactly_once")
            assert client._gate is not None

    def test_causal_alone_is_not_inert(self):
        cluster = make_static_cluster(config=DynamothConfig(causal_order=True))
        client = cluster.create_client("c")
        assert all(server.reliability is None for server in cluster.servers.values())
        assert client._sequence is None and client._gate is not None


# ----------------------------------------------------------------------
# ChannelReplayCache
# ----------------------------------------------------------------------
class TestChannelReplayCache:
    def test_stamp_is_monotonic_from_one(self):
        cache = ChannelReplayCache()
        assert [cache.stamp() for _ in range(4)] == [1, 2, 3, 4]

    def test_count_eviction_is_oldest_first(self):
        cache = ChannelReplayCache()
        for seq in range(1, 6):
            cache.add(_entry(seq), max_msgs=3, max_bytes=10**9)
        assert [e.seq for e in cache.entries] == [3, 4, 5]
        assert cache.floor == 2

    def test_byte_eviction_updates_floor_and_bytes(self):
        cache = ChannelReplayCache()
        # wire_size = 140 each; budget of 300 holds two entries.
        for seq in range(1, 5):
            cache.add(_entry(seq), max_msgs=10**9, max_bytes=300)
        assert [e.seq for e in cache.entries] == [3, 4]
        assert cache.bytes_used == 280
        assert cache.floor == 2

    def test_oversized_entry_evicts_everything_including_itself(self):
        cache = ChannelReplayCache()
        cache.add(_entry(1), max_msgs=10, max_bytes=200)
        cache.add(CacheEntry(2, "big", 400, 500), max_msgs=10, max_bytes=200)
        assert not cache.entries
        assert cache.bytes_used == 0
        assert cache.floor == 2

    @staticmethod
    def _filled(count: int, max_msgs: int) -> ChannelReplayCache:
        cache = ChannelReplayCache()
        for _ in range(count):
            cache.add(_entry(cache.stamp()), max_msgs=max_msgs, max_bytes=10**9)
        return cache

    def test_slice_after_selects_the_open_interval(self):
        """``select`` answers exactly the sequence numbers named: a resume's
        run of everything newer, or a gap request's scattered holes."""
        cache = self._filled(6, max_msgs=10)
        result = cache.select(range(3, 6))
        assert [e.seq for e in result.entries] == [3, 4, 5]
        assert result.gap_through == 0
        assert [e.seq for e in cache.select((2, 5)).entries] == [2, 5]
        # Not stamped yet, or nothing asked: nothing to send, nothing lost.
        assert cache.select((6, 7, 9)) == ReplaySlice((cache.entries[-1],), 0)
        assert cache.select(()) == ReplaySlice()

    def test_slice_after_reports_evicted_gap(self):
        cache = self._filled(6, max_msgs=2)
        # Only 5, 6 remain; floor is 4.
        result = cache.select(range(2, 7))
        assert [e.seq for e in result.entries] == [5, 6]
        assert result.gap_through == 4
        assert cache.select((3, 6)) == ReplaySlice((cache.entries[1],), 4)
        # A request entirely above the floor reports no gap.
        assert cache.select((5, 6)).gap_through == 0

    def test_select_indexes_where_the_scan_filtered(self):
        """Every interval, at every eviction depth, selects what a scan of
        the entries would: the cache is contiguous by construction."""
        for max_msgs in (1, 3, 8):
            cache = self._filled(8, max_msgs=max_msgs)
            for low in range(0, 10):
                for high in range(low, 11):
                    seqs = range(low, high)
                    scanned = tuple(e for e in cache.entries if e.seq in seqs)
                    assert cache.select(seqs).entries == scanned

    def test_eviction_is_byte_identical_across_runs(self):
        """Satellite: two identical insertion sequences leave identical
        cache state -- eviction order must be deterministic."""

        def run() -> tuple:
            cache = ChannelReplayCache()
            sizes = [90, 200, 40, 170, 60, 130, 220, 10]
            for i, size in enumerate(sizes, start=1):
                seq = cache.stamp()
                assert seq == i
                cache.add(
                    CacheEntry(seq, f"m{seq}", size, size + 40),
                    max_msgs=4,
                    max_bytes=500,
                )
            return (
                tuple(cache.entries),
                cache.bytes_used,
                cache.floor,
                cache.next_seq,
            )

        assert run() == run()


# ----------------------------------------------------------------------
# BrokerReliability
# ----------------------------------------------------------------------
class TestBrokerReliability:
    def test_stamp_and_cache_per_channel(self):
        broker = BrokerReliability(epoch=1)
        assert broker.stamp_and_cache("a", "m1", 10, 50) == 1
        assert broker.stamp_and_cache("a", "m2", 10, 50) == 2
        assert broker.stamp_and_cache("b", "m3", 10, 50) == 1

    def test_replay_slice_happy_path(self):
        broker = BrokerReliability(epoch=3)
        for _ in range(5):
            broker.stamp_and_cache("a", "m", 10, 50)
        result = broker.replay_slice("a", epoch=3, seqs=(2, 4))
        assert result is not None
        assert [e.seq for e in result.entries] == [2, 4]

    def test_epoch_mismatch_returns_none(self):
        broker = BrokerReliability(epoch=2)
        broker.stamp_and_cache("a", "m", 10, 50)
        assert broker.replay_slice("a", epoch=1, seqs=(1,)) is None

    def test_unknown_channel_returns_none(self):
        broker = BrokerReliability(epoch=1)
        assert broker.replay_slice("ghost", epoch=1, seqs=(1, 2)) is None


# ----------------------------------------------------------------------
# SequenceStage: driven with canned (server, channel, seq, epoch, now) tuples
# ----------------------------------------------------------------------
def _feed(stage: SequenceStage, *observations):
    """Feed canned observations; return the verdict of each."""
    return [stage.observe(*observation) for observation in observations]


class TestSequenceStage:
    def test_in_order_stream_has_no_requests(self):
        stage = SequenceStage(True)
        verdicts = _feed(stage, *[("s1", "a", seq, 1, 0.0) for seq in range(1, 5)])
        assert verdicts == [True, True, True, True]

    def test_first_contact_mid_stream_owes_nothing_before_the_join_point(self):
        stage = SequenceStage(True)
        assert stage.observe("s1", "a", 7, 1, 0.0) is True
        assert stage.resume_point("s1", "a") == (7, 1)

    def test_gap_requests_the_missing_range(self):
        """A hole is asked for by number, in the call that finds it."""
        stage = SequenceStage(True)
        assert _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 5, 1, 0.1)) == [
            True,
            (2, 3, 4),
        ]

    def test_fill_shrinks_the_hole_and_requests_the_rest(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 5, 1, 0.1))
        # 2 and 4 are still missing and their request is a timeout old: they
        # are named again, 3 (just filled) is not.
        assert stage.observe("s1", "a", 3, 1, 2.0) == (2, 4)
        # Asked a moment ago: the fill of 2 re-requests nothing.
        assert stage.observe("s1", "a", 2, 1, 2.0) is True
        stage.observe("s1", "a", 4, 1, 4.0)
        assert stage.resume_point("s1", "a") == (5, 1)

    def test_cooldown_suppresses_request_storms(self):
        """The retry clock is per hole: one already asked for waits out its
        own timeout, one found meanwhile is asked for at once."""
        stage = SequenceStage(True)
        assert _feed(
            stage,
            ("s1", "a", 1, 1, 0.0),
            ("s1", "a", 3, 1, 0.1),
            ("s1", "a", 4, 1, 0.5),
            ("s1", "a", 6, 1, 0.6),
            ("s1", "a", 7, 1, 1.0),
            ("s1", "a", 8, 1, 1.2),
            ("s1", "a", 9, 1, 1.6),
        ) == [True, (2,), True, (5,), True, (2,), (5,)]

    def test_timeout_is_measured_from_holes_asked_exactly_once(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 4, 1, 1.0))  # asks 2, 3
        link = stage._links["s1"]
        assert (link.srtt, link.timeout) == (0.0, 1.0)  # the ceiling, until a sample
        stage.observe("s1", "a", 2, 1, 1.08)
        # First sample: srtt = R, rttvar = R / 2, timeout = srtt + 4 * rttvar.
        assert link.srtt == pytest.approx(0.08) and link.rttvar == pytest.approx(0.04)
        assert link.timeout == pytest.approx(0.24)
        # 3 is re-asked at 1.3 and filled at 1.5: asked twice, so the fill
        # cannot be matched to a request and is no sample (Karn's rule).
        assert stage.observe("s1", "a", 5, 1, 1.3) == (3,)
        assert stage.observe("s1", "a", 3, 1, 1.5) is True
        assert (link.srtt, link.rttvar) == (pytest.approx(0.08), pytest.approx(0.04))
        # A jitter-free link: rttvar decays, the floor holds srtt * 3 / 2.
        for n in range(40):
            seq = 7 + 2 * n
            stage.observe("s1", "a", seq, 1, 2.0 + n)
            stage.observe("s1", "a", seq - 1, 1, 2.08 + n)
        assert link.rttvar < 0.001
        assert link.timeout == pytest.approx(0.12)
        # The estimator belongs to the link: another channel of s1 starts
        # from it, another server does not.
        _feed(stage, ("s1", "b", 1, 1, 50.0), ("s1", "b", 3, 1, 50.1), ("s2", "a", 1, 1, 50.0))
        assert stage.observe("s1", "b", 4, 1, 50.3) == (2,)
        assert stage._links["s2"].timeout == 1.0

    def test_measured_timeout_never_exceeds_the_configured_ceiling(self):
        stage = SequenceStage(True)
        # One 0.4 s sample: srtt + 4 * rttvar is 1.2 s, above the 1 s ceiling.
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 3, 1, 1.0), ("s1", "a", 2, 1, 1.4))
        assert stage._links["s1"].srtt == pytest.approx(0.4)
        assert stage._links["s1"].timeout == REPLAY_RETRY_COOLDOWN_S

    def test_straggler_from_an_older_boot_leaves_the_stream_alone(self):
        """Regression: an epoch-1 delivery landing after epoch 2 began used
        to reset the live stream (holes and watermark gone), and the next
        epoch-2 delivery reset it again."""
        for tier in ("at_least_once", "exactly_once"):
            stage = SequenceStage(tier == "exactly_once")
            _feed(stage, ("s1", "a", 9, 1, 0.0), ("s1", "a", 1, 2, 1.0))
            assert stage.observe("s1", "a", 4, 2, 1.1) == (2, 3)
            # Handed on to dedup, whatever its number.
            assert stage.observe("s1", "a", 10, 1, 1.2) is True
            assert stage.observe("s1", "a", 3, 1, 1.2) is True
            assert stage.resume_point("s1", "a") == (1, 2)
            assert sorted(stage.streams[("s1", "a")].missing) == [2, 3]
            assert stage.observe("s1", "a", 5, 2, 1.3) is True  # no reset, no re-ask

    def test_retry_timer_asks_again_when_nothing_arrives(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 3, 1, 2.0))
        assert stage.arm("s1", "a") == 1.0
        assert stage.arm("s1", "a") == 0.0  # one timer per stream
        # Nothing arrived: the hole is due exactly when the timer fires.
        assert stage.retry("s1", "a", 3.0, True) == (1, (2,), 1.0)
        assert stage.retry("s1", "a", 4.0, True) == (1, (2,), 1.0)
        # The fill ends it: the next firing finds no hole and stops.
        assert stage.observe("s1", "a", 2, 1, 4.1) is True
        assert stage.retry("s1", "a", 5.0, True) == (0, (), 0.0)
        assert stage.arm("s1", "a") == 1.0  # a later hole starts a new one

    def test_retry_timer_backs_off_on_silence_and_any_arrival_resets_it(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 4, 1, 1.0), ("s1", "a", 2, 1, 1.08))
        assert stage._links["s1"].timeout == pytest.approx(0.24)
        delay = stage.arm("s1", "a")
        fired, asked = 1.08, []
        for _ in range(5):
            fired += delay
            _, seqs, delay = stage.retry("s1", "a", fired, True)
            asked.append((round(fired, 2), seqs, round(delay, 2)))
        # 3 was asked at 1.0.  The first firing follows an arrival (no
        # doubling); each silent one after it doubles, up to the ceiling.
        assert asked == [
            (1.32, (3,), 0.24),
            (1.56, (3,), 0.48),
            (2.04, (3,), 0.96),
            (3.0, (3,), 1.0),
            (4.0, (3,), 1.0),
        ]
        # An arrival (here a duplicate) puts the timeout back on the link's.
        stage.observe("s1", "a", 4, 1, 4.5)
        assert stage.retry("s1", "a", 5.0, True) == (1, (3,), pytest.approx(0.24))

    def test_retry_timer_stops_for_a_dropped_or_unheld_stream(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 3, 1, 0.1))
        assert stage.arm("s1", "a") == 1.0
        # The client no longer holds s1 for the channel: stop, ask nothing,
        # keep the hole for the resume point.
        assert stage.retry("s1", "a", 5.0, False) == (0, (), 0.0)
        assert stage.resume_point("s1", "a") == (1, 1)
        # Dropped with the timer in flight: it stops when it fires ...
        assert stage.arm("s1", "a") == 1.0
        stage.drop_channel("a")
        assert stage.retry("s1", "a", 6.0, True) == (0, (), 0.0)
        # ... unless the stream was rebuilt by then, which inherits it: a
        # stream never has two timers.
        _feed(stage, ("s1", "a", 1, 1, 6.0), ("s1", "a", 3, 1, 6.1))
        assert stage.arm("s1", "a") == 1.0
        stage.drop_channel("a")
        _feed(stage, ("s1", "a", 1, 1, 6.5), ("s1", "a", 3, 1, 6.6))
        assert stage.arm("s1", "a") == 0.0
        assert stage.retry("s1", "a", 7.1, True) == (1, (), pytest.approx(0.5))
        assert stage.retry("s1", "a", 7.6, True) == (1, (2,), 1.0)

    def test_stale_seq_drops_on_exactly_once_only(self):
        exactly = SequenceStage(True)
        assert _feed(
            exactly, ("s1", "a", 1, 1, 0.0), ("s1", "a", 2, 1, 0.0), ("s1", "a", 1, 1, 0.1)
        ) == [True, True, False]

        at_least = SequenceStage(False)
        assert _feed(
            at_least, ("s1", "a", 1, 1, 0.0), ("s1", "a", 2, 1, 0.0), ("s1", "a", 1, 1, 0.1)
        ) == [True, True, True]

    def test_epoch_change_resets_and_adopts_midstream(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 4, 1, 0.1))
        # Server restarted: new epoch, and we join at seq 7 mid-stream --
        # no gap is owed before our join point.
        assert stage.observe("s1", "a", 7, 2, 5.0) is True
        assert stage.resume_point("s1", "a") == (7, 2)

    def test_fresh_epoch_seq_one_is_not_a_regression(self):
        stage = SequenceStage(True)
        assert _feed(stage, ("s1", "a", 9, 1, 0.0), ("s1", "a", 1, 2, 1.0)) == [
            True,
            True,
        ]

    def test_forget_through_abandons_evicted_holes(self):
        stage = SequenceStage(True)
        _feed(stage, ("s1", "a", 1, 1, 0.0), ("s1", "a", 6, 1, 0.1))
        assert stage.forget_through("s1", "a", epoch=1, through_seq=4) == 3  # 2, 3, 4
        assert stage.resume_point("s1", "a") == (4, 1)  # still chasing 5
        # A notice for the wrong epoch, or an unknown stream, is ignored.
        assert stage.forget_through("s1", "a", epoch=9, through_seq=6) == 0
        assert stage.forget_through("s2", "a", epoch=1, through_seq=6) == 0

    def test_resume_point_defaults_and_drop_channel(self):
        stage = SequenceStage(True)
        assert stage.resume_point("s1", "a") == (-1, -1)
        _feed(stage, ("s1", "a", 2, 1, 0.0), ("s1", "b", 3, 1, 0.0))
        stage.drop_channel("a")
        assert stage.resume_point("s1", "a") == (-1, -1)
        assert stage.resume_point("s1", "b") == (3, 1)  # other channels untouched


class TestSubscribeHandshake:
    """A SUBSCRIBE and its ack are the link's first round trip (TCP's
    SYN/SYN-ACK): gap repair's clock is measured before any hole.  The
    client's handshake table times it; the stage's link takes the sample."""

    @staticmethod
    def _client():
        """A bare exactly_once client whose servers never ack: the test does."""
        sim, _, client = make_bare_client(
            servers=("s1", "s2"), config=DynamothConfig(delivery_tier="exactly_once")
        )
        return sim, client

    @staticmethod
    def _subscribe(sim, client, at, server, channel, version=0):
        sim.run_until(at)
        client._send_subscribe(channel, version, server)

    @staticmethod
    def _ack(sim, client, at, server, channel):
        sim.run_until(at)
        client.receive(SubscribeAck(channel, server), server)

    def test_a_clean_handshake_samples_the_link(self):
        sim, client = self._client()
        self._subscribe(sim, client, 1.0, "s1", "a")
        self._ack(sim, client, 1.08, "s1", "a")
        link = client._sequence._links["s1"]
        assert link.srtt == pytest.approx(0.08) and link.rttvar == pytest.approx(0.04)
        assert link.timeout == pytest.approx(0.24)
        # A later clean handshake (a reconcile, a resubscribe) samples too.
        self._subscribe(sim, client, 5.0, "s1", "b")
        self._ack(sim, client, 5.16, "s1", "b")
        assert link.srtt == pytest.approx(0.09)

    def test_a_subscribe_resent_before_its_ack_leaves_the_clock_unsampled(self):
        """Karn's rule: the ack matches neither SUBSCRIBE."""
        sim, client = self._client()
        self._subscribe(sim, client, 1.0, "s1", "a")
        self._subscribe(sim, client, 1.5, "s1", "a")
        assert client._handshakes == {("s1", "a"): (1.0, 1.5, 0)}  # first send kept
        self._ack(sim, client, 1.58, "s1", "a")
        assert client._handshakes == {}
        stage = client._sequence
        _feed(stage, ("s1", "a", 1, 1, 2.0), ("s1", "a", 3, 1, 2.1))
        link = stage._links["s1"]
        assert (link.srtt, link.timeout) == (0.0, 1.0)
        # The ack closed the ambiguous entry: the next SUBSCRIBE is clean.
        self._subscribe(sim, client, 3.0, "s1", "a")
        self._ack(sim, client, 3.1, "s1", "a")
        assert link.srtt == pytest.approx(0.1)

    def test_an_ack_with_no_pending_subscribe_samples_nothing(self):
        sim, client = self._client()
        self._ack(sim, client, 1.0, "s1", "a")
        # Nor one whose entry left with its channel or its server.
        self._subscribe(sim, client, 2.0, "s1", "a")
        self._subscribe(sim, client, 2.0, "s2", "b")
        client.unsubscribe("a")
        client._detach_server("s2")
        assert client._handshakes == {}
        self._ack(sim, client, 2.1, "s1", "a")
        self._ack(sim, client, 2.1, "s2", "b")
        assert all(link.srtt == 0.0 for link in client._sequence._links.values())

    def test_a_subscribe_unacked_for_the_ceiling_is_due_again(self):
        """The ping tick re-sends a SUBSCRIBE whose latest send is the
        ceiling old; a re-send restarts that clock, an ack ends it."""
        sim, wire, client = make_bare_client(
            config=DynamothConfig(
                client_ping_interval_s=REPLAY_RETRY_COOLDOWN_S, delivery_tier="exactly_once"
            ),
        )
        wire.live.add("s1")
        send = wire.send

        def never_ack(src, dst, message, size):
            if isinstance(message, SubscribeCmd):
                wire.sent.append((sim.now, dst, message))
            else:
                send(src, dst, message, size)

        wire.send = never_ack
        client.subscribe("a")
        sim.run_until(0.5)
        client.subscribe("b")

        def sends():
            return [(t, m.channel) for t, _, m in wire.sent if isinstance(m, SubscribeCmd)]

        sim.run_until(1.5)  # tick 1.0: only a is a ceiling old
        assert sends() == [(0.0, "a"), (0.5, "b"), (1.0, "a")]
        assert client._handshakes == {("s1", "a"): (0.0, 1.0, 0), ("s1", "b"): (0.5, 0.5, 0)}
        sim.run_until(2.5)  # tick 2.0: the re-send restarted a's clock
        assert sends()[3:] == [(2.0, "a"), (2.0, "b")]
        client.receive(SubscribeAck("b", "s1"), "s1")
        sim.run_until(9.5)
        assert sends()[5:] == [(float(t), "a") for t in range(3, 10)]

    def test_a_hole_after_a_handshake_is_reasked_on_the_measured_timeout(self):
        sim, client = self._client()
        self._subscribe(sim, client, 0.0, "s1", "a")
        self._ack(sim, client, 0.1, "s1", "a")
        stage = client._sequence
        link = stage._links["s1"]
        timeout = link.srtt + max(4 * link.rttvar, link.srtt / 2)
        assert timeout == pytest.approx(0.3) and link.timeout == timeout
        assert _feed(stage, ("s1", "a", 1, 1, 1.0), ("s1", "a", 3, 1, 1.1)) == [True, (2,)]
        assert stage.arm("s1", "a") == timeout
        assert stage.observe("s1", "a", 4, 1, 1.1 + timeout - 0.01) is True
        assert stage.observe("s1", "a", 5, 1, 1.1 + timeout) == (2,)


# ----------------------------------------------------------------------
# Gap repair as a property: the stage against a set-based reference
# ----------------------------------------------------------------------
class _RepairRun:
    """One stream over a lossy link, the test playing client and broker.

    The broker publishes ``count`` sequence numbers one ``period`` apart;
    every message takes ``one_way`` seconds.  ``lost_*`` are consumed one
    verdict per original delivery / request / replayed delivery and read
    "arrives" once exhausted -- so arrivals continue, losslessly, after
    the last drawn loss.  Every verdict and every request is checked
    against ``seen``, a plain set of the sequence numbers that arrived.
    """

    def __init__(self, tier, lost_deliveries, lost_requests, lost_replays, period, one_way):
        self.sim = Simulator()
        self.stage = SequenceStage(tier == "exactly_once")
        self.drops_stale = tier == "exactly_once"
        self.lost = {
            "delivery": list(lost_deliveries),
            "request": list(lost_requests),
            "replay": list(lost_replays),
        }
        self.one_way = one_way
        self.seen = set()
        self.asked_at = {}
        self.delivered = []
        self.timers = 0  # retry timers in flight: one while there are holes
        #: enough lossless tail for every drawn request/replay loss to be
        #: retried past at the ceiling, one at a time
        ceiling = REPLAY_RETRY_COOLDOWN_S
        tail = int((len(lost_requests) + len(lost_replays) + 3) * ceiling / period) + 3
        self.count = len(lost_deliveries) + tail
        for index in range(self.count):
            self.sim.schedule(index * period, self.publish, index + 1)
        self.sim.run()

    def arrives(self, kind):
        draws = self.lost[kind]
        return not (draws and draws.pop(0))

    def publish(self, seq):
        if self.arrives("delivery"):
            self.sim.schedule(self.one_way, self.arrive, seq)

    def arrive(self, seq):
        now = self.sim.now
        fresh = seq not in self.seen
        verdict = self.stage.observe("s", "ch", seq, 1, now)
        self.seen.add(seq)
        assert (verdict is not False) == (fresh or not self.drops_stale)
        if verdict is not False:
            self.delivered.append(seq)
        if verdict not in (True, False):
            self.request(verdict)
            delay = self.stage.arm("s", "ch")
            if delay:
                self.timers += 1
                assert self.timers == 1
                self.sim.schedule(delay, self.fire)

    def fire(self):
        epoch, seqs, delay = self.stage.retry("s", "ch", self.sim.now, True)
        if seqs:
            assert epoch == 1
            self.request(seqs)
        if delay:
            self.sim.schedule(delay, self.fire)
        else:
            self.timers -= 1
            assert not self.stage.streams[("s", "ch")].missing

    def request(self, seqs):
        now = self.sim.now
        timeout = self.stage._links["s"].timeout  # the shortest that can be in force
        assert seqs and list(seqs) == sorted(set(seqs))
        for seq in seqs:
            assert seq not in self.seen and min(self.seen) < seq < max(self.seen)
            assert self.asked_at.get(seq, float("-inf")) + timeout <= now
            self.asked_at[seq] = now
        if self.arrives("request"):
            self.sim.schedule(self.one_way, self.replay, seqs)

    def replay(self, seqs):
        for seq in seqs:
            if self.arrives("replay"):
                self.sim.schedule(self.one_way, self.arrive, seq)


class TestRepairProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        tier=st.sampled_from(["at_least_once", "exactly_once"]),
        lost_deliveries=st.lists(st.booleans(), max_size=40),
        lost_requests=st.lists(st.booleans(), max_size=8),
        lost_replays=st.lists(st.booleans(), max_size=8),
        period=st.floats(min_value=0.02, max_value=0.3),
        one_way=st.floats(min_value=0.005, max_value=0.2),
    )
    def test_only_holes_are_asked_for_on_the_clock_and_all_are_filled(
        self, tier, lost_deliveries, lost_requests, lost_replays, period, one_way
    ):
        run = _RepairRun(tier, lost_deliveries, lost_requests, lost_replays, period, one_way)
        joined = min(run.seen)
        owed = list(range(joined, run.count + 1))
        # Every hole was filled once arrivals continued ...
        assert sorted(run.seen) == owed
        assert not run.stage.streams[("s", "ch")].missing and run.timers == 0
        assert run.stage.resume_point("s", "ch") == (run.count, 1)
        # ... and the application saw each number at least / exactly once.
        assert sorted(set(run.delivered)) == owed
        if tier == "exactly_once":
            assert len(run.delivered) == len(owed)

    def test_the_reference_run_exercises_every_loss(self):
        """The harness itself: a drawn loss of each kind costs a retry."""
        run = _RepairRun(
            "exactly_once", [False, True, False, True, False], [True], [False, True], 0.1, 0.04
        )
        assert sorted(run.delivered) == [1, 2, 3, 4, 5] + list(range(6, run.count + 1))
        assert sorted(run.asked_at) == [2, 4]
        assert not any(run.lost.values())


# ----------------------------------------------------------------------
# CausalGate: driven with canned envelopes, a bare simulator, no cluster
# ----------------------------------------------------------------------
def _stamped(sender: str, pub_seq: int, deps=(), channel: str = "a") -> Delivery:
    envelope = AppEnvelope(
        f"{sender}:{pub_seq}", sender, pub_seq, None, 0, 0.0, False, pub_seq, tuple(deps)
    )
    return Delivery(channel, envelope, 16, "s1")


def _gate():
    """A gate on a bare simulator whose timeouts land in ``timeouts``; it
    parks for the shipped 2 s."""
    sim = Simulator()
    timeouts = []
    owner = SimpleNamespace(
        sim=sim, node_id="me", receive=lambda message, src: timeouts.append(message)
    )
    return sim, CausalGate(owner), timeouts


def _ids(batch) -> list:
    return [delivery.payload.msg_id for delivery in batch]


class TestCausalGate:
    def test_stamp_counts_fifo_and_snapshots_deps(self):
        sim, gate, _ = _gate()
        assert gate.stamp("a") == (1, ())
        gate.admit(_stamped("bob", 1))
        gate.admit(_stamped("alice", 1))
        gate.admit(_stamped("alice", 2))
        gate.admit(_stamped("me", 1))  # own publication: never a dependency
        gate.admit(_stamped("alice", 1, channel="b"))  # other channel: excluded
        assert gate.stamp("a") == (2, (("alice", 2), ("bob", 1)))

    def test_parks_on_a_fifo_hole_and_on_a_missing_dependency(self):
        sim, gate, _ = _gate()
        assert _ids(gate.admit(_stamped("alice", 1))) == ["alice:1"]
        assert gate.admit(_stamped("alice", 3)) == ()  # FIFO hole
        assert gate.admit(_stamped("bob", 1, [("carol", 1)])) == ()  # dep unseen
        # A dependency on the sender itself is covered by FIFO, not parked on.
        assert _ids(gate.admit(_stamped("dave", 1, [("dave", 5)]))) == ["dave:1"]

    def test_delivered_vector_is_monotonic(self):
        sim, gate, _ = _gate()
        gate.admit(_stamped("alice", 1))
        gate.admit(_stamped("alice", 2))
        # A late duplicate of alice:1 passes (dedup runs before the gate)
        # but must not roll the vector back.
        assert _ids(gate.admit(_stamped("alice", 1))) == ["alice:1"]
        assert _ids(gate.admit(_stamped("bob", 1, [("alice", 2)]))) == ["bob:1"]

    def test_release_chain_follows_the_scan_order(self):
        sim, gate, _ = _gate()
        # Parked in arrival order: c (needs b:1), b (needs alice:1), a3, a2.
        assert gate.admit(_stamped("carol", 1, [("bob", 1)])) == ()
        assert gate.admit(_stamped("bob", 1, [("alice", 1)])) == ()
        assert gate.admit(_stamped("alice", 3)) == ()
        assert gate.admit(_stamped("alice", 2)) == ()
        # alice:1 arrives.  Each release rescans from the head: bob:1 (the
        # first ready), then carol:1 (now ready, and ahead of alice:2 in
        # the list), then alice:2, then alice:3.
        assert _ids(gate.admit(_stamped("alice", 1))) == [
            "alice:1", "bob:1", "carol:1", "alice:2", "alice:3",
        ]

    def test_timeout_flushes_in_arrival_order_and_advances_the_vector(self):
        sim, gate, timeouts = _gate()
        gate.admit(_stamped("alice", 3))
        gate.admit(_stamped("bob", 1, [("alice", 2)]))
        sim.run_until(1.9)
        assert timeouts == []
        sim.run_until(2.1)
        assert len(timeouts) == 1  # one timer per parked set, armed by the first park
        timeout = timeouts[0]
        assert isinstance(timeout, ParkTimeout) and timeout.channel == "a"
        assert _ids(gate.expire("a", timeout.token)) == ["alice:3", "bob:1"]
        # The flush counts as delivery: alice:4 is now in FIFO order.
        assert _ids(gate.admit(_stamped("alice", 4))) == ["alice:4"]
        # And the token is spent.
        assert gate.expire("a", timeout.token) == ()

    def test_token_is_stale_once_the_channel_drained_and_reparked(self):
        sim, gate, timeouts = _gate()
        gate.admit(_stamped("alice", 2))  # parks at t=0, timer due t=2
        sim.run_until(1.0)
        assert _ids(gate.admit(_stamped("alice", 1))) == ["alice:1", "alice:2"]
        gate.admit(_stamped("alice", 4))  # re-parks at t=1, timer due t=3
        sim.run_until(2.5)
        (old,) = timeouts
        assert gate.expire("a", old.token) == ()  # must not flush the new set early
        sim.run_until(3.5)
        assert _ids(gate.expire("a", timeouts[1].token)) == ["alice:4"]

    def test_drop_channel_mid_park_forgets_everything(self):
        sim, gate, timeouts = _gate()
        gate.stamp("a")
        gate.admit(_stamped("alice", 1))
        gate.admit(_stamped("alice", 3))
        gate.drop_channel("a")
        # History is gone: the publication counter and the vector restart,
        sim.run_until(1.0)
        assert gate.stamp("a") == (1, ())
        assert gate.admit(_stamped("alice", 2)) == ()  # parks again, timer due t=3
        # and the timer armed before the drop cannot flush what parked after.
        sim.run_until(2.5)
        assert gate.expire("a", timeouts[0].token) == ()
        sim.run_until(3.5)
        assert _ids(gate.expire("a", timeouts[1].token)) == ["alice:2"]

    def test_drop_channel_of_an_unknown_channel_is_a_no_op(self):
        sim, gate, _ = _gate()
        gate.drop_channel("ghost")


class _TwoHelperGate:
    """One channel of the gate as it read when ``admit`` called a separate
    readiness helper for the arrival and then per parked candidate: the
    reference the one-loop ``CausalGate.admit`` must match."""

    def __init__(self):
        self.delivered = {}
        self.parked = []

    def admit(self, delivery):
        if not self._ready(delivery.payload):
            self.parked.append(delivery)
            return ()
        batch = [delivery]
        index = 0
        while index < len(self.parked):
            if self._ready(self.parked[index].payload):
                batch.append(self.parked.pop(index))
                index = 0
            else:
                index += 1
        return batch

    def expire(self):
        flushed, self.parked = self.parked, []
        for delivery in flushed:
            sender, pub_seq = delivery.payload.sender, delivery.payload.pub_seq
            self.delivered[sender] = max(pub_seq, self.delivered.get(sender, 0))
        return flushed

    def _ready(self, envelope):
        delivered = self.delivered
        sender = envelope.sender
        last = delivered.get(sender, 0)
        if envelope.pub_seq > last + 1:
            return False
        for dep_sender, dep_seq in envelope.deps:
            if dep_sender != sender and delivered.get(dep_sender, 0) < dep_seq:
                return False
        if envelope.pub_seq > last:
            delivered[sender] = envelope.pub_seq
        return True


_SENDERS = ("alice", "bob", "carol")


@st.composite
def _causal_schedules(draw):
    """Arrival orders over 2-3 senders: each sender's publications 1..n
    with dependencies on the others (some never published, so their
    dependents park until a flush), shuffled, repeated at random, with
    park-timeout flushes (``None``) in between."""
    senders = _SENDERS[: draw(st.integers(2, 3))]
    published = []
    for sender in senders:
        for pub_seq in range(1, draw(st.integers(1, 5)) + 1):
            deps = draw(
                st.lists(
                    st.tuples(st.sampled_from(senders), st.integers(1, 6)),
                    max_size=3,
                    unique_by=lambda dep: dep[0],
                )
            )
            published.append((sender, pub_seq, tuple(sorted(deps))))
    arrivals = draw(st.permutations(published))
    arrivals += draw(st.lists(st.sampled_from(published), max_size=4))
    ops = []
    for arrival in arrivals:
        if draw(st.integers(0, 5)) == 0:
            ops.append(None)
        ops.append(arrival)
    ops.append(None)
    return ops


class TestCausalGateEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(ops=_causal_schedules())
    def test_one_loop_admit_matches_the_two_helper_gate(self, ops):
        sim, gate, timeouts = _gate()
        reference = _TwoHelperGate()
        for op in ops:
            if op is None:
                # Every timer armed since the last flush fires; only the
                # newest token of a still-parked set may flush it.
                fired = len(timeouts)
                sim.run_until(sim.now + CAUSAL_PARK_TIMEOUT_S)
                flushed = []
                for timeout in timeouts[fired:]:
                    flushed.extend(gate.expire(timeout.channel, timeout.token))
                assert _ids(flushed) == _ids(reference.expire())
            else:
                sender, pub_seq, deps = op
                delivery = _stamped(sender, pub_seq, deps)
                assert _ids(gate.admit(delivery)) == _ids(reference.admit(delivery))
            # ``stamp`` reports the delivered vector (the owner "me" never sends).
            assert gate.stamp("a")[1] == tuple(sorted(reference.delivered.items()))


def test_config_validation_rejects_bad_tier():
    with pytest.raises(ValueError, match="delivery_tier"):
        DynamothConfig(delivery_tier="maybe_once")
