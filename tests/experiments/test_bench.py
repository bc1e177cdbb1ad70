"""Bench harness tests: schema v2 payload, RSS series, streamed chaos SLA."""

import json
from pathlib import Path

import pytest

from repro.experiments import bench


@pytest.fixture(scope="module")
def chaos_light_result():
    return bench.run_chaos_light(bench.SMOKE_PROFILE)


class TestChaosLight:
    def test_streamed_run_reports_counters_not_buffers(self, chaos_light_result):
        # With the streaming sink the tracer holds no events, yet the
        # counts still flow through the metrics registry.
        assert chaos_light_result.events > 0
        assert chaos_light_result.deliveries > 0

    def test_sla_report_included(self, chaos_light_result):
        sla = chaos_light_result.sla
        assert sla is not None
        assert sla["quantile"] == 95.0
        assert sla["violation_count"] == len(sla["violations"])
        assert "overall" in sla["scopes"]
        for episode in sla["violations"]:
            assert episode["start_t"] >= 0.0

    def test_rss_series_sampled(self, chaos_light_result):
        series = chaos_light_result.rss_series
        assert series, "chaos smoke runs enough events to sample RSS"
        assert all(p["events"] > 0 and p["rss_kb"] > 0 for p in series)
        events = [p["events"] for p in series]
        assert events == sorted(events)


class TestReliabilityScenario:
    @pytest.fixture(scope="class")
    def reliability_result(self):
        return bench.run_reliability(bench.SMOKE_PROFILE)

    def test_reports_every_tier(self, reliability_result):
        tiers = reliability_result.reliability
        assert tiers is not None
        assert set(tiers) == {"at_most_once", "at_least_once", "exactly_once"}
        for stats in tiers.values():
            assert stats["app_deliveries"] > 0
            assert stats["latency"]["p95_ms"] > 0.0

    def test_reliable_tiers_repair_the_lossy_window(self, reliability_result):
        tiers = reliability_result.reliability
        lossy = tiers["at_most_once"]["app_deliveries"]
        for tier in ("at_least_once", "exactly_once"):
            assert tiers[tier]["app_deliveries"] >= lossy
            assert tiers[tier]["replayed_messages"] > 0

    def test_render_includes_tier_lines(self, reliability_result):
        text = bench.render_results({"reliability": reliability_result})
        assert "exactly_once" in text


class TestSchema:
    def test_results_to_dict_is_schema_v2_json(self, chaos_light_result, tmp_path):
        doc = bench.results_to_dict(
            bench.SMOKE_PROFILE, {"chaos_light": chaos_light_result}
        )
        assert doc["schema"] == bench.BENCH_SCHEMA == 2
        scenario = doc["scenarios"]["chaos_light"]
        assert isinstance(scenario["rss_series"], list)
        assert scenario["sla"]["threshold_s"] == pytest.approx(0.15)
        path = tmp_path / "bench.json"
        bench.write_json(str(path), doc)
        assert json.loads(path.read_text())["schema"] == 2

    def test_render_mentions_sla(self, chaos_light_result):
        text = bench.render_results({"chaos_light": chaos_light_result})
        assert "violation(s)" in text

    def test_headline_extraction_unchanged(self):
        doc = {"scenarios": {"fanout": {"events_per_s": 123.0}}}
        assert bench.extract_headline(doc) == 123.0

    @pytest.mark.parametrize(
        "baseline",
        [
            "BENCH_PR4.json",
            "benchmarks/perf/BENCH_PR7.json",
            "benchmarks/perf/BENCH_PR9.json",
            "benchmarks/perf/baseline_smoke.json",
        ],
    )
    def test_committed_baselines_still_gate(self, baseline):
        # Baselines recorded before the scheduler option was removed carry
        # an extra per-scenario "scheduler" key; the gate must read them.
        root = Path(__file__).resolve().parents[2]
        doc = json.loads((root / baseline).read_text(encoding="utf-8"))
        headline = bench.extract_headline(doc)
        assert headline is not None and headline > 0
