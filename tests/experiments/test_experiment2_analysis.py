"""Unit tests for Experiment 2's analysis layer (no heavy simulation)."""

import pytest

from repro.experiments.records import BucketedStat, SeriesRecorder
from repro.experiments.report import headline_gain
from repro.experiments.run import SPECS, RunRecord


def synthetic_result(rt_by_second, pop_by_second):
    """Build a RunRecord from hand-written series."""
    rtt = BucketedStat()
    for second, value in rt_by_second.items():
        rtt.add(second + 0.5, value)
    series = SeriesRecorder()
    for second, pop in pop_by_second.items():
        series.record("population", float(second), float(pop))
    return RunRecord(
        spec=SPECS["fig5-smoke"],
        seed=0,
        policy="paper",
        end_t=100.0,
        series=series,
        response_times=rtt,
        rebalance_times=[],
        balancer_events=[],
        load_history=[],
        plan_pushes=0,
        migrations=0,
        final_plan_version=0,
        final_server_count=4,
        server_seconds=0.0,
        updates_sent=0,
        sla=None,
    )


class TestMaxSustainablePlayers:
    def test_all_healthy_returns_peak(self):
        result = synthetic_result(
            rt_by_second={t: 0.08 for t in range(0, 60)},
            pop_by_second={t: 10 * t for t in range(0, 60)},
        )
        assert result.max_sustainable_players() == 590

    def test_degradation_caps_the_count(self):
        rt = {t: (0.08 if t < 30 else 5.0) for t in range(0, 60)}
        result = synthetic_result(
            rt_by_second=rt, pop_by_second={t: 10 * t for t in range(0, 60)}
        )
        sustainable = result.max_sustainable_players()
        # healthy up to ~t=30 (pop 300); smoothing blurs the edge slightly
        assert 240 <= sustainable <= 330

    def test_short_spike_is_forgiven(self):
        """The paper keeps counting through short rebalance spikes; the
        10s smoothing window absorbs a 1-2 s burst."""
        rt = {t: 0.08 for t in range(0, 60)}
        rt[30] = 1.0  # single-second spike
        result = synthetic_result(
            rt_by_second=rt, pop_by_second={t: 10 * t for t in range(0, 60)}
        )
        assert result.max_sustainable_players() == 590

    def test_no_samples_means_no_exclusion(self):
        result = synthetic_result(
            rt_by_second={}, pop_by_second={t: t for t in range(0, 10)}
        )
        assert result.max_sustainable_players() == 9


class TestHeadlineComparison:
    def test_improvement_math(self):
        a = synthetic_result({t: 0.08 for t in range(30)}, {t: 10 * t for t in range(30)})
        b = synthetic_result(
            {t: (0.08 if t < 15 else 9.9) for t in range(30)},
            {t: 10 * t for t in range(30)},
        )
        dyn, ch = a.max_sustainable_players(), b.max_sustainable_players()
        assert dyn > ch
        assert headline_gain(a, b) == pytest.approx((dyn - ch) / ch)

    def test_zero_baseline_is_infinite(self):
        a = synthetic_result({0: 0.08}, {0: 10})
        b = synthetic_result({t: 9.9 for t in range(0, 30)}, {t: 10 for t in range(0, 30)})
        assert b.max_sustainable_players() == 0
        assert headline_gain(a, b) == float("inf")


class TestConfigPresets:
    def test_paper_scale_magnitudes(self):
        spec = SPECS["fig5-paper"]
        assert spec.population[-1][1] == 1200
        assert spec.tiles_per_side == 8
        assert spec.config.max_servers == 8

    def test_smoke_is_small(self):
        spec = SPECS["fig5-smoke"]
        assert spec.population[-1][1] <= 100
        assert spec.duration_s <= 120

    def test_derived_configs_consistent(self):
        """The CLI's and the bench's fig 5 are one spec: the cadence
        EXPERIMENTS.md reports, a pool that starts at its floor."""
        spec = SPECS["fig5"]
        assert spec.config.t_wait_s == 20.0
        assert spec.config.min_servers == spec.initial_servers == 1
        assert spec.config.rebalance_policy == "paper"
