"""Unit tests for message formats."""

import pytest

from repro.core.messages import (
    AppEnvelope,
    ChannelMetricsSnapshot,
    LoadReport,
    MappingNotice,
    NoMoreSubscribers,
    PlanPush,
    SwitchNotice,
)
from repro.core.plan import ChannelMapping, ReplicationMode


class TestAppEnvelope:
    def test_as_forwarded_preserves_identity(self):
        env = AppEnvelope("alice:1", "alice", 1, {"k": 1}, 3, 12.5)
        fwd = env.as_forwarded()
        assert fwd.forwarded is True
        assert not env.forwarded  # original untouched (frozen)
        assert (fwd.msg_id, fwd.sender, fwd.number, fwd.body) == ("alice:1", "alice", 1, {"k": 1})
        assert (fwd.plan_version, fwd.sent_at) == (3, 12.5)

    def test_forwarding_idempotent(self):
        env = AppEnvelope("a:1", "a", 1, None, 0, 0.0).as_forwarded()
        assert env.as_forwarded().forwarded is True

    def test_envelopes_hashable_for_dedup_sets(self):
        e1 = AppEnvelope("a:1", "a", 1, "x", 0, 0.0)
        assert e1.msg_id in {e1.msg_id}


class TestLoadReport:
    def test_load_ratio_property(self):
        report = LoadReport("s1", 0.0, 1.0, 1000.0, 450.0, ())
        assert report.load_ratio == pytest.approx(0.45)

    def test_cpu_defaults_to_zero(self):
        report = LoadReport("s1", 0.0, 1.0, 1000.0, 0.0, ())
        assert report.cpu_utilization == 0.0

    def test_snapshot_fields(self):
        snap = ChannelMetricsSnapshot("ch", 10.0, 2, 5, 50.0, 12_000.0)
        assert snap.channel == "ch"
        assert snap.bytes_out_per_s == 12_000.0


class TestWireSizes:
    """Control messages must be small -- the whole design argument for
    lazy propagation rests on cheap notices."""

    def test_notices_are_small(self):
        assert MappingNotice.WIRE_SIZE <= 128
        assert SwitchNotice.WIRE_SIZE <= 128
        assert NoMoreSubscribers.WIRE_SIZE <= 128

    def test_plan_push_bounded(self):
        assert PlanPush.WIRE_SIZE <= 1024

    def test_messages_are_frozen(self):
        notice = MappingNotice("ch", ChannelMapping(ReplicationMode.SINGLE, ("a",)))
        with pytest.raises(AttributeError):
            notice.channel = "other"
