"""Live SLA monitor tests: window mechanics, edge cases, determinism."""

import pytest

from repro.obs.sla import OVERALL_SCOPE, SlaConfig, SlaMonitor, SlidingHistogram
from repro.obs.trace import (
    DeliveryEvent,
    SlaViolationEndEvent,
    SlaViolationStartEvent,
    SlaWindowEvent,
    Tracer,
)


def _monitor(tracer=None, **overrides):
    tracer = tracer if tracer is not None else Tracer()
    kwargs = dict(threshold_s=0.1, window_s=10.0, slices=10)
    kwargs.update(overrides)
    monitor = SlaMonitor(tracer, SlaConfig(**kwargs))
    tracer.add_observer(monitor)
    return tracer, monitor


def _deliver(tracer, t, latency_s, channel="tile:1:1", server="pub1"):
    tracer.emit(
        DeliveryEvent(t, "bob", channel, "m", "alice", latency_s, 1, server)
    )


class TestSlidingHistogram:
    def test_window_ages_out_old_samples(self):
        win = SlidingHistogram(window_s=10.0, slices=10)
        win.observe(1.0, 0.5)
        assert win.merged(win.epoch_of(1.0)).count == 1
        # 15s later the sample is outside the 10s window.
        late_epoch = win.epoch_of(16.0)
        win.roll(late_epoch)
        assert win.merged(late_epoch) is None

    def test_merged_spans_live_slices(self):
        win = SlidingHistogram(window_s=10.0, slices=10)
        for t in (1.0, 3.0, 9.0):
            win.observe(t, 0.2)
        assert win.merged(win.epoch_of(9.0)).count == 3

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SlidingHistogram(window_s=0.0, slices=10)


class TestViolationLifecycle:
    def test_start_and_end_events_emitted(self):
        tracer, monitor = _monitor()
        for i in range(20):
            _deliver(tracer, 0.1 + i * 0.1, 0.5)  # all way over 100ms
        monitor.poll(30.0)  # stale samples age out -> episode ends
        starts = [e for e in tracer.events if type(e) is SlaViolationStartEvent]
        ends = [e for e in tracer.events if type(e) is SlaViolationEndEvent]
        assert [e.scope for e in starts].count(OVERALL_SCOPE) == 1
        assert [e.scope for e in ends].count(OVERALL_SCOPE) == 1
        overall_start = next(e for e in starts if e.scope == OVERALL_SCOPE)
        overall_end = next(e for e in ends if e.scope == OVERALL_SCOPE)
        assert overall_start.t < overall_end.t
        assert overall_end.duration_s == overall_end.t - overall_start.t
        assert monitor.report()["violation_count"] == len(monitor.violations)

    def test_violation_timestamps_slice_aligned(self):
        tracer, monitor = _monitor()
        for i in range(20):
            _deliver(tracer, 0.05 + i * 0.1, 0.5)
        monitor.poll(30.0)
        slice_s = monitor.slice_s
        for event in tracer.events:
            if type(event) in (SlaViolationStartEvent, SlaViolationEndEvent):
                assert event.t % slice_s == pytest.approx(0.0)

    def test_scopes_tracked_per_channel_and_server(self):
        tracer, monitor = _monitor()
        _deliver(tracer, 0.5, 0.5, channel="tile:1:1", server="pub1")
        _deliver(tracer, 0.6, 0.001, channel="room:7", server="pub2")
        monitor.poll(2.0)
        assert monitor.in_violation("channel:tile")
        assert monitor.in_violation("server:pub1")
        assert not monitor.in_violation("channel:room")
        assert not monitor.in_violation("server:pub2")
        assert "channel:tile" in monitor.active_scopes()


class TestEdgeCases:
    def test_empty_window_cannot_violate(self):
        tracer, monitor = _monitor()
        monitor.poll(50.0)  # windows advance with zero samples
        assert monitor.active_scopes() == ()
        assert monitor.report()["violation_count"] == 0
        assert monitor.windowed_percentile() is None

    def test_threshold_exactly_met_is_not_a_violation(self):
        # Pick the threshold equal to the bucket upper edge the samples
        # land in, so the windowed percentile == threshold exactly.
        from repro.obs.metrics import Histogram

        probe = SlaConfig(threshold_s=0.1)
        hist = Histogram(probe.bucket_min_s, probe.bucket_factor, probe.bucket_count)
        hist.observe(0.09)
        edge = hist.percentile(95.0)
        tracer2, monitor2 = _monitor(threshold_s=edge)
        for i in range(10):
            _deliver(tracer2, 0.1 + i * 0.1, 0.09)
        monitor2.poll(5.0)
        # The windowed p95 equals the threshold -- strictly greater is
        # required, so the SLA is still met.
        assert monitor2.windowed_percentile() == pytest.approx(edge)
        assert monitor2.active_scopes() == ()

    def test_just_above_threshold_violates(self):
        tracer, monitor = _monitor(threshold_s=0.05)
        for i in range(10):
            _deliver(tracer, 0.1 + i * 0.1, 0.09)
        monitor.poll(5.0)
        assert monitor.in_violation(OVERALL_SCOPE)

    def test_open_episode_has_no_duration(self):
        tracer, monitor = _monitor()
        _deliver(tracer, 0.5, 0.5)
        monitor.poll(3.0)  # still inside the window: episode stays open
        assert monitor.in_violation(OVERALL_SCOPE)
        open_episodes = [v for v in monitor.violations if v.end_t is None]
        assert open_episodes and open_episodes[0].duration_s is None

    def test_window_stats_can_be_disabled(self):
        tracer, monitor = _monitor(emit_window_stats=False)
        _deliver(tracer, 0.5, 0.5)
        monitor.poll(5.0)
        assert not [e for e in tracer.events if type(e) is SlaWindowEvent]


class TestDeterminism:
    def test_two_seeded_runs_produce_identical_sla_reports(self):
        from repro.experiments.chaos import ChaosScenarioConfig, run_chaos

        def one_run():
            config = ChaosScenarioConfig.smoke()
            config.duration_s = 35.0
            result = run_chaos(config)
            return result.sla

        first, second = one_run(), one_run()
        assert first == second
        assert first["violation_count"] > 0  # the scenario exercises episodes

    def test_monitored_run_does_not_change_simulation(self):
        """The monitor is observability-only: event counts stay identical."""
        from repro.experiments.chaos import ChaosScenarioConfig, run_chaos

        def events_processed(threshold):
            config = ChaosScenarioConfig.smoke()
            config.duration_s = 30.0
            config.sla_threshold_s = threshold
            result = run_chaos(config)
            return result.tracer.metrics.snapshot()["counters"]["sim_events_total"]

        assert events_processed(None) == events_processed(0.15)
