"""Unit tests for the cluster load view."""

import pytest

from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView, ServerLoadView
from repro.core.plan import ChannelMapping, ReplicationMode


def report(server, t, measured, nominal=1000.0, channels=()):
    return LoadReport(
        server_id=server,
        window_start=t - 1.0,
        window_end=t,
        nominal_egress_bps=nominal,
        measured_egress_bps=measured,
        channels=tuple(channels),
    )


def snap(channel, pubs=0.0, publishers=0, subs=0, msgs=0.0, out=0.0):
    return ChannelMetricsSnapshot(channel, pubs, publishers, subs, msgs, out)


class TestLoadRatio:
    def test_load_ratio_formula(self):
        view = ClusterLoadView(window_s=5.0)
        view.add_report(report("s1", 1.0, measured=500.0, nominal=1000.0))
        assert view.load_ratio("s1") == pytest.approx(0.5)

    def test_window_average(self):
        view = ClusterLoadView(window_s=5.0)
        view.add_report(report("s1", 1.0, measured=400.0))
        view.add_report(report("s1", 2.0, measured=800.0))
        assert view.load_ratio("s1") == pytest.approx(0.6)

    def test_prune_drops_old_reports(self):
        view = ClusterLoadView(window_s=3.0)
        view.add_report(report("s1", 1.0, measured=1000.0))
        view.add_report(report("s1", 9.0, measured=200.0))
        view.prune(10.0)
        assert view.load_ratio("s1") == pytest.approx(0.2)

    def test_unknown_server_is_zero(self):
        assert ClusterLoadView(5.0).load_ratio("ghost") == 0.0

    def test_average_load_ratio(self):
        view = ClusterLoadView(5.0)
        view.add_report(report("a", 1.0, measured=200.0))
        view.add_report(report("b", 1.0, measured=600.0))
        assert view.average_load_ratio(["a", "b"]) == pytest.approx(0.4)
        assert view.average_load_ratio([]) == 0.0

    def test_has_report(self):
        view = ClusterLoadView(5.0)
        assert not view.has_report("a")
        view.add_report(report("a", 1.0, 100.0))
        assert view.has_report("a")

    def test_forget_server(self):
        view = ClusterLoadView(5.0)
        view.add_report(report("a", 1.0, 100.0))
        view.forget_server("a")
        assert not view.has_report("a")


class TestServerLoadViewPrune:
    def test_evicts_reports_older_than_window(self):
        view = ServerLoadView(window_s=3.0)
        view.add(report("s1", 1.0, measured=100.0))
        view.add(report("s1", 5.0, measured=200.0))
        view.add(report("s1", 9.0, measured=300.0))
        view.prune(10.0)  # horizon = 7.0: only the t=9 report survives
        assert view.report_count == 1
        assert view.load_ratio() == pytest.approx(0.3)

    def test_keeps_report_exactly_on_horizon(self):
        view = ServerLoadView(window_s=3.0)
        view.add(report("s1", 7.0, measured=100.0))
        view.prune(10.0)  # window_end == horizon is *not* evicted
        assert view.report_count == 1

    def test_prune_all_leaves_zero_ratio(self):
        view = ServerLoadView(window_s=1.0)
        view.add(report("s1", 1.0, measured=500.0))
        view.prune(100.0)
        assert view.report_count == 0
        assert view.load_ratio() == 0.0

    def test_prune_is_idempotent(self):
        view = ServerLoadView(window_s=3.0)
        view.add(report("s1", 1.0, measured=100.0))
        view.add(report("s1", 9.0, measured=300.0))
        view.prune(10.0)
        view.prune(10.0)
        assert view.report_count == 1


class TestChannelLoads:
    def test_channel_loads_averaged(self):
        view = ClusterLoadView(5.0)
        view.add_report(report("s1", 1.0, 0, channels=[snap("ch", pubs=10, out=100)]))
        view.add_report(report("s1", 2.0, 0, channels=[snap("ch", pubs=30, out=300)]))
        load = view.channel_loads("s1")["ch"]
        assert load.publications_per_s == pytest.approx(20.0)
        assert load.bytes_out_per_s == pytest.approx(200.0)

    def test_subscriber_count_uses_latest(self):
        view = ClusterLoadView(5.0)
        view.add_report(report("s1", 1.0, 0, channels=[snap("ch", subs=5)]))
        view.add_report(report("s1", 2.0, 0, channels=[snap("ch", subs=9)]))
        assert view.channel_loads("s1")["ch"].subscriber_count == 9

    def test_answered_once_per_window(self):
        view = ServerLoadView(window_s=3.0)
        view.add(report("s1", 1.0, 0, channels=[snap("ch", pubs=10)]))
        first = view.channel_loads()
        assert view.channel_loads() is first
        view.add(report("s1", 2.0, 0, channels=[snap("ch", pubs=30)]))
        second = view.channel_loads()
        assert second is not first
        assert second["ch"].publications_per_s == pytest.approx(20.0)
        view.prune(3.5)  # horizon 0.5: both reports stay
        assert view.channel_loads() is second
        view.prune(4.5)  # horizon 1.5: the t=1 report goes
        third = view.channel_loads()
        assert third is not second
        assert third["ch"].publications_per_s == pytest.approx(30.0)


class TestChannelTotals:
    def test_single_sums(self):
        view = ClusterLoadView(5.0)
        view.add_report(report("a", 1.0, 0, channels=[snap("ch", pubs=10, subs=3, out=50)]))
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("a",))
        totals = view.channel_totals("ch", mapping)
        assert totals.publications_per_s == pytest.approx(10.0)
        assert totals.subscriber_count == 3

    def test_all_subscribers_dedups_subscribers(self):
        """Each subscriber is connected to every replica: subscriber
        counts must not be summed across replicas."""
        view = ClusterLoadView(5.0)
        view.add_report(report("a", 1.0, 0, channels=[snap("ch", pubs=100, subs=4)]))
        view.add_report(report("b", 1.0, 0, channels=[snap("ch", pubs=140, subs=4)]))
        mapping = ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"))
        totals = view.channel_totals("ch", mapping)
        assert totals.publications_per_s == pytest.approx(240.0)  # split flow
        assert totals.subscriber_count == 4  # same subscribers everywhere

    def test_all_publishers_dedups_publications(self):
        view = ClusterLoadView(5.0)
        view.add_report(report("a", 1.0, 0, channels=[snap("ch", pubs=50, subs=100)]))
        view.add_report(report("b", 1.0, 0, channels=[snap("ch", pubs=50, subs=120)]))
        mapping = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b"))
        totals = view.channel_totals("ch", mapping)
        assert totals.publications_per_s == pytest.approx(50.0)  # duplicated flow
        assert totals.subscriber_count == 220  # split subscribers

    def test_missing_channel_returns_none(self):
        view = ClusterLoadView(5.0)
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("a",))
        assert view.channel_totals("ghost", mapping) is None

    def test_counts_servers_outside_current_mapping(self):
        """During a reconfiguration window the channel's traffic is still
        observed on the old server; totals must include it even though
        the current mapping no longer names that server."""
        view = ClusterLoadView(5.0)
        view.add_report(report("old", 1.0, 0, channels=[snap("ch", pubs=30, subs=2, out=90)]))
        view.add_report(report("new", 1.0, 0, channels=[snap("ch", pubs=10, subs=2, out=30)]))
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("new",))  # "old" displaced
        totals = view.channel_totals("ch", mapping)
        assert totals.publications_per_s == pytest.approx(40.0)
        assert totals.bytes_out_per_s == pytest.approx(120.0)

    def test_only_outside_servers_report(self):
        """Consistent-hashing fallback mismatch: the mapped server has no
        traffic at all, yet the channel is live elsewhere."""
        view = ClusterLoadView(5.0)
        view.add_report(report("b", 1.0, 0, channels=[snap("ch", pubs=20, subs=5, out=60)]))
        view.add_report(report("a", 1.0, 0, channels=[]))  # mapped server: silent
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("a",))
        totals = view.channel_totals("ch", mapping)
        assert totals is not None
        assert totals.publications_per_s == pytest.approx(20.0)
        assert totals.subscriber_count == 5
