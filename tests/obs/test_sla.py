"""Live SLA monitor tests: window mechanics, edge cases, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import event_to_json
from repro.obs.metrics import Histogram
from repro.obs import sla
from repro.obs.sla import OVERALL_SCOPE, SlaMonitor, SlidingHistogram
from repro.obs.trace import (
    DeliveryEvent,
    SlaViolationEndEvent,
    SlaViolationStartEvent,
    SlaWindowEvent,
    Tracer,
    channel_class,
)


def _monitor(tracer=None, threshold_s=0.1):
    """A monitor on the shipped window: 10 s in ten 1 s slices."""
    tracer = tracer if tracer is not None else Tracer()
    monitor = SlaMonitor(tracer, threshold_s)
    tracer.attach_sla(monitor)
    return tracer, monitor


def _deliver(tracer, t, latency_s, channel="tile:1:1", server="pub1"):
    tracer.emit(
        DeliveryEvent(t, "bob", channel, "m", "alice", latency_s, 1, server)
    )


def _scope(monitor, scope=OVERALL_SCOPE):
    """``report()``'s row for ``scope`` at the monitor's clock ({} before its first sample)."""
    return monitor.report(monitor.epoch * monitor.slice_s)["scopes"].get(scope, {})


def _window_count(monitor, scope=OVERALL_SCOPE):
    return _scope(monitor, scope)["window_count"]


class TestSlidingHistogram:
    def test_window_ages_out_old_samples(self):
        tracer, monitor = _monitor()
        _deliver(tracer, 1.0, 0.5)
        assert _window_count(monitor) == 1
        # 15s later the sample is outside the 10s window.
        monitor.poll(16.0)
        assert _window_count(monitor) == 0
        assert _scope(monitor).get("value_s") is None

    def test_merged_spans_live_slices(self):
        tracer, monitor = _monitor()
        for t in (1.0, 3.0, 9.0):
            _deliver(tracer, t, 0.2)
        assert _window_count(monitor) == 3

    def test_a_scope_reads_every_leaf_under_it(self):
        """One sample per (class, server) leaf; each scope counts its own."""
        tracer, monitor = _monitor()
        _deliver(tracer, 1.0, 0.2, channel="tile:1:1", server="pub1")
        _deliver(tracer, 2.0, 0.3, channel="tile:2:2", server="pub2")
        _deliver(tracer, 3.0, 0.4, channel="room:7", server="pub1")
        report = monitor.report(3.0)
        counts = {name: row["window_count"] for name, row in report["scopes"].items()}
        assert counts == {
            "overall": 3, "channel:tile": 2, "channel:room": 1, "server:pub1": 2, "server:pub2": 1,
        }
        assert len(monitor._leaves) == 3

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SlidingHistogram(slices=0, min_value=1e-4, factor=1.25, buckets=64)


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
        # One breach, seen by three scopes: the headline counts it once.
        assert len(monitor.violations) == 3
        assert monitor.report(30.0)["violation_count"] == 1

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
        assert _scope(monitor, "channel:tile")["violating"]
        assert _scope(monitor, "server:pub1")["violating"]
        assert not _scope(monitor, "channel:room")["violating"]
        assert not _scope(monitor, "server:pub2")["violating"]
        assert "channel:tile" in monitor.active_scopes()


class TestEdgeCases:
    def test_empty_window_cannot_violate(self):
        tracer, monitor = _monitor()
        monitor.poll(50.0)  # windows advance with zero samples
        assert monitor.active_scopes() == ()
        assert monitor.report(50.0)["violation_count"] == 0
        assert _scope(monitor).get("value_s") is None

    def test_threshold_exactly_met_is_not_a_violation(self):
        # Pick the threshold equal to the bucket upper edge the samples
        # land in, so the windowed percentile == threshold exactly.
        from repro.obs.metrics import Histogram

        hist = Histogram(sla.SLA_BUCKET_MIN_S, sla.SLA_BUCKET_FACTOR, sla.SLA_BUCKET_COUNT)
        hist.observe(0.09)
        edge = hist.percentile(95.0)
        tracer2, monitor2 = _monitor(threshold_s=edge)
        for i in range(10):
            _deliver(tracer2, 0.1 + i * 0.1, 0.09)
        monitor2.poll(5.0)
        # The windowed p95 equals the threshold -- strictly greater is
        # required, so the SLA is still met.
        assert _scope(monitor2)["value_s"] == pytest.approx(edge)
        assert monitor2.active_scopes() == ()

    def test_just_above_threshold_violates(self):
        tracer, monitor = _monitor(threshold_s=0.05)
        for i in range(10):
            _deliver(tracer, 0.1 + i * 0.1, 0.09)
        monitor.poll(5.0)
        assert _scope(monitor, OVERALL_SCOPE)["violating"]

    def test_open_episode_has_no_duration(self):
        tracer, monitor = _monitor()
        _deliver(tracer, 0.5, 0.5)
        monitor.poll(3.0)  # still inside the window: episode stays open
        assert _scope(monitor, OVERALL_SCOPE)["violating"]
        open_episodes = [v for v in monitor.violations if v.end_t is None]
        assert open_episodes and open_episodes[0].duration_s is None

    def test_the_report_counts_open_episodes(self):
        """An open episode has no duration of its own, but it has lasted
        until the run stopped: ``violation_seconds`` -- the headline's and
        each scope's -- counts it to the end time the report is given (the
        policy lab's definition).  ``open_count`` says it is still open, and
        the chaos summary prints both.  The headline figures are the overall
        scope's: the same breach in its channel and server scopes is not
        counted three times."""
        tracer, monitor = _monitor(threshold_s=0.1)
        for i in range(60):
            _deliver(tracer, i * 0.1, 0.5)
        monitor.poll(6.0)
        report = monitor.report(6.5)
        assert len(report["violations"]) == 3
        assert [v["end_t"] for v in report["violations"]] == [None, None, None]
        assert [v["duration_s"] for v in report["violations"]] == [None, None, None]
        for v in report["violations"]:
            assert report["scopes"][v["scope"]]["violation_seconds"] == 6.5 - v["start_t"]
        (overall,) = [v for v in report["violations"] if v["scope"] == OVERALL_SCOPE]
        assert report["violation_count"] == 1
        assert report["violation_seconds"] == 6.5 - overall["start_t"] == 5.5
        assert report["open_count"] == 1

        from repro.experiments.chaos import ChaosResult, ChaosScenarioConfig, render_chaos

        result = ChaosResult(
            ChaosScenarioConfig.smoke(), "pub1", 10.0, None, None, 0, None, 0, tracer, report
        )
        assert "violations                           1 (5.5s total, 1 still open)" in (
            render_chaos(result)
        )


class _PerScopeReference:
    """The monitor before leaves: every scope keeps a window of its own and
    a sample is recorded into each scope it belongs to.  A window is a plain
    ``(epoch, latency)`` list, re-bucketed on every read."""

    def __init__(self, tracer, threshold_s):
        self.tracer, self.threshold_s = tracer, threshold_s
        self.slice_s = sla.SLA_WINDOW_S / sla.SLA_WINDOW_SLICES
        self.samples = {}  # scope -> [(epoch, latency)]
        self.active = {}  # scope -> its open episode, as report() renders it
        self.violations = []
        self.epoch = None

    def __call__(self, event):
        if type(event) is not DeliveryEvent:
            return
        self.poll(event.t)
        names = [OVERALL_SCOPE, f"channel:{channel_class(event.channel)}"]
        if event.server:
            names.append(f"server:{event.server}")
        for name in names:
            self.samples.setdefault(name, []).append((self.epoch, event.latency_s))

    def poll(self, now):
        epoch = int(now / self.slice_s)
        if self.epoch is None:
            self.epoch = epoch
        while self.epoch < epoch:
            self.epoch += 1
            self.evaluate(self.epoch * self.slice_s)

    def window(self, name):
        hist = Histogram(sla.SLA_BUCKET_MIN_S, sla.SLA_BUCKET_FACTOR, sla.SLA_BUCKET_COUNT)
        for epoch, latency in self.samples[name]:
            if self.epoch - sla.SLA_WINDOW_SLICES < epoch <= self.epoch:
                hist.observe(latency)
        return hist

    def evaluate(self, t):
        threshold_s, emit = self.threshold_s, self.tracer.emit
        for name in sorted(self.samples):
            hist = self.window(name)
            value = hist.percentile(sla.SLA_QUANTILE)  # None when empty
            violating = value is not None and value > threshold_s
            episode = self.active.get(name)
            if violating and episode is None:
                episode = self.active[name] = dict(
                    scope=name, start_t=t, end_t=None, duration_s=None, peak_s=value
                )
                self.violations.append(episode)
                emit(SlaViolationStartEvent(
                    t, name, sla.SLA_QUANTILE, threshold_s, value, hist.count
                ))
            elif violating:
                episode["peak_s"] = max(episode["peak_s"], value)
            elif episode is not None:
                del self.active[name]
                episode.update(end_t=t, duration_s=t - episode["start_t"])
                emit(SlaViolationEndEvent(t, name, episode["duration_s"], episode["peak_s"]))
            if hist.count:
                emit(SlaWindowEvent(
                    t, name, hist.count, hist.percentile(50), value, hist.max, violating
                ))

    def report(self, end_t):
        def lasted(v):
            return (end_t if v["end_t"] is None else v["end_t"]) - v["start_t"]

        overall = [v for v in self.violations if v["scope"] == OVERALL_SCOPE]
        scopes = {}
        for name in sorted(self.samples):
            hist = self.window(name)
            scopes[name] = {
                "window_count": hist.count,
                "value_s": hist.percentile(sla.SLA_QUANTILE),
                "violating": name in self.active,
                "violation_seconds": sum(
                    (lasted(v) for v in self.violations if v["scope"] == name), 0.0
                ),
            }
        return {
            "threshold_s": self.threshold_s,
            "quantile": sla.SLA_QUANTILE,
            "window_s": sla.SLA_WINDOW_S,
            "scopes": scopes,
            "violations": self.violations,
            "violation_count": len(overall),
            "violation_seconds": sum((lasted(v) for v in overall), 0.0),
            "open_count": sum(1 for v in overall if v["end_t"] is None),
        }


_DELIVERIES = st.lists(
    st.tuples(
        # 0.5 s slices in a 2 s window: most gaps stay inside one slice,
        # some cross a boundary and some outlast the whole window.
        st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.3, 2.0, 7.5]),
        st.floats(min_value=1e-5, max_value=2.0),
        st.sampled_from(["tile:1:1", "tile:2:3", "room7", "room9", "lobby"]),
        st.sampled_from(["", "pub1", "pub2"]),
    ),
    max_size=60,
)


class TestLeafMergeEqualsPerScopeWindows:
    @settings(max_examples=150, deadline=None)
    @given(_DELIVERIES, st.floats(min_value=0.0, max_value=5.0))
    def test_events_and_report_match_the_reference(self, deliveries, drain_s):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sla, "SLA_WINDOW_S", 2.0)
            patch.setattr(sla, "SLA_WINDOW_SLICES", 4)
            outcomes = self._run_both(deliveries, drain_s)
        assert outcomes[0] == outcomes[1]

    @staticmethod
    def _run_both(deliveries, drain_s):
        outcomes = []
        for build in (SlaMonitor, _PerScopeReference):
            tracer = Tracer()
            monitor = build(tracer, 0.1)
            if build is SlaMonitor:
                tracer.attach_sla(monitor)
            else:
                tracer.add_observer(monitor)
            t = 0.0
            for gap, latency_s, channel, server in deliveries:
                t += gap
                _deliver(tracer, t, latency_s, channel, server)
            monitor.poll(t + drain_s)
            lines = [
                event_to_json(e) for e in tracer.events if type(e) is not DeliveryEvent
            ]
            outcomes.append((lines, monitor.report(t + drain_s)))
        return outcomes


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
