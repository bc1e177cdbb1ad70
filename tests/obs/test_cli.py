"""Tests for the trace-analysis CLI (`python -m repro.obs summary`)."""

import pytest

from repro.obs.cli import TraceSummary, main, percentile, render_summary, sparkline
from repro.obs.export import read_trace, write_trace
from repro.obs.trace import (
    DeliveryEvent,
    LoadSnapshotEvent,
    MigrationSettledEvent,
    MigrationStartEvent,
    PlanGeneratedEvent,
    ServerReadyEvent,
)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) is None

    def test_single(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_and_tail(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(50.0, abs=1.0)
        assert percentile(values, 99) == pytest.approx(99.0, abs=1.0)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_width_capped(self):
        line = sparkline([float(i) for i in range(100)], width=10)
        assert len(line) == 10

    def test_short_series_one_char_each(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3

    def test_zero_series_renders_baseline(self):
        line = sparkline([0.0, 0.0])
        assert len(line) == 2


def _delivery(t, latency, channel="tile:1", version=1):
    return DeliveryEvent(t, "c", channel, f"m{t}", "p", latency, version)


def _synthetic_events():
    """A run with two plan generations, a settle, and load snapshots."""
    return [
        LoadSnapshotEvent(1.0, {"pub1": 0.2, "pub2": 0.1}),
        _delivery(2.0, 0.010, version=0),
        _delivery(3.0, 0.020, version=0),
        PlanGeneratedEvent(5.0, 1, ("tile:1",), (), False),
        MigrationStartEvent(5.0, 1, "tile:1", ("pub1",), ("pub2",), "single"),
        MigrationSettledEvent(5.4, "tile:1", "pub1"),
        _delivery(6.0, 0.030),
        _delivery(7.0, 0.040),
        LoadSnapshotEvent(6.0, {"pub1": 0.05, "pub2": 0.3}),
        PlanGeneratedEvent(10.0, 2, ("tile:1",), (), True),
        ServerReadyEvent(12.0, "pub3"),
        _delivery(11.0, 0.050, version=2),
    ]


class TestTraceSummary:
    def test_phases_cover_run(self):
        summary = TraceSummary(_synthetic_events())
        phases = summary.phases()
        assert phases == [(0.0, 5.0, 0), (5.0, 10.0, 1), (10.0, 12.0, 2)]

    def test_phases_without_plans(self):
        summary = TraceSummary([_delivery(1.0, 0.01)])
        assert summary.phases() == [(0.0, 1.0, 0)]

    def test_settle_time(self):
        summary = TraceSummary(_synthetic_events())
        first, second = summary.plans
        assert summary.settle_time(first) == pytest.approx(0.4)
        assert summary.settle_time(second) is None  # never settled

    def test_hottest_channels_ranked(self):
        events = [
            _delivery(1.0, 0.01, channel="a"),
            _delivery(2.0, 0.02, channel="b"),
            _delivery(3.0, 0.03, channel="b"),
        ]
        ranked = TraceSummary(events).hottest_channels(top=5)
        assert [c for c, __, __ in ranked] == ["b", "a"]
        assert ranked[0][1] == 2

    def test_load_series_by_server(self):
        series = TraceSummary(_synthetic_events()).load_series()
        assert series["pub1"] == [(1.0, 0.2), (6.0, 0.05)]
        assert series["pub2"] == [(1.0, 0.1), (6.0, 0.3)]


    def test_recovery_is_the_chaos_runs(self, tmp_path):
        """Time-to-recover has one definition: the summary replays each
        crash through the ``RecoveryWatch`` that ``run_chaos`` runs live."""
        from repro.experiments.chaos import ChaosScenarioConfig, run_chaos

        result = run_chaos(ChaosScenarioConfig.smoke())
        path = tmp_path / "chaos.jsonl"
        write_trace(path, result.tracer.events)
        (watch,) = TraceSummary(read_trace(path)).recoveries()
        assert (watch.victim, watch.crash_t) == (result.victim, result.crash_t)
        assert (watch.detection_s, watch.repair_s, watch.failover_count, watch.recovery_s) == (
            result.detection_s, result.repair_s, result.failover_count, result.recovery_s
        )
        assert watch.recovery_s is not None


class TestRenderSummary:
    def test_mentions_all_sections(self):
        text = render_summary(TraceSummary(_synthetic_events()))
        assert "delivery latency" in text
        assert "p50=" in text and "p99=" in text
        assert "plan v1" in text and "plan v2" in text
        assert "reconfiguration timeline (2 plan generations)" in text
        assert "tile:1: pub1 -> pub2 (single)" in text
        assert "settled +0.40s" in text
        assert "per-server load ratio" in text
        assert "pub1" in text and "pub2" in text
        assert "hottest channels" in text
        assert "elasticity: 1 server(s) spawned" in text

    def test_empty_trace_degrades_gracefully(self):
        text = render_summary(TraceSummary([]))
        assert "no plan generations recorded" in text
        assert "no load snapshots recorded" in text
        assert "no deliveries recorded" in text


class TestMain:
    def test_summary_subcommand(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_trace(path, _synthetic_events())
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "p50=" in out and "p99=" in out
        assert "plan v1" in out
        assert "per-server load ratio" in out

    def test_top_flag(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_trace(
            path,
            [
                _delivery(1.0, 0.01, channel="a"),
                _delivery(2.0, 0.02, channel="b"),
                _delivery(3.0, 0.02, channel="b"),
            ],
        )
        assert main(["summary", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 1" in out
        assert "b" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSlaAndProfileSubcommands:
    def _sla_events(self):
        from repro.obs.trace import SlaViolationEndEvent, SlaViolationStartEvent

        return [
            _delivery(1.0, 0.01),
            SlaViolationStartEvent(2.0, "overall", 95.0, 0.1, 0.2, 40),
            SlaViolationEndEvent(5.0, "overall", 3.0, 0.2),
            SlaViolationStartEvent(7.0, "server:pub1", 95.0, 0.1, 0.3, 10),
        ]

    def test_sla_subcommand_renders_timeline(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_trace(path, self._sla_events())
        assert main(["sla", str(path)]) == 0
        out = capsys.readouterr().out
        # The header is the overall scope's, as SlaMonitor.report's is; the
        # list below it names every scope's episodes.
        assert "1 overall episode(s), 3.0s total\n" in out
        assert "overall" in out
        assert "server:pub1" in out

    def test_sla_header_runs_an_open_overall_episode_to_the_last_event(self, tmp_path, capsys):
        from repro.obs.trace import SlaViolationStartEvent

        path = tmp_path / "run.jsonl"
        events = self._sla_events() + [
            SlaViolationStartEvent(8.0, "overall", 95.0, 0.1, 0.4, 40),
            _delivery(9.5, 0.4),
        ]
        write_trace(path, events)
        assert main(["sla", str(path)]) == 0
        assert "2 overall episode(s), 4.5s total, 1 still open\n" in capsys.readouterr().out

    def test_sla_json_includes_open_episode(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.jsonl"
        write_trace(path, self._sla_events())
        assert main(["sla", str(path), "--json"]) == 0
        episodes = json.loads(capsys.readouterr().out)
        assert len(episodes) == 2
        open_episode = next(e for e in episodes if e["scope"] == "server:pub1")
        assert open_episode["end_t"] is None

    def test_summary_mentions_sla_timeline(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_trace(path, self._sla_events())
        assert main(["summary", str(path)]) == 0
        assert "SLA violations" in capsys.readouterr().out
