"""Smoke tests: every experiment harness runs end to end (small presets)
and reproduces its qualitative paper shape."""

import pytest

from repro.core.plan import ReplicationMode
from repro.experiments.experiment1 import run_point
from repro.experiments.run import SPECS, run, with_policy
from repro.experiments import report

SINGLE = ReplicationMode.SINGLE
ALL_PUBLISHERS = ReplicationMode.ALL_PUBLISHERS
ALL_SUBSCRIBERS = ReplicationMode.ALL_SUBSCRIBERS


class TestExperiment1Shapes:
    def test_fig4a_replication_beats_single_at_high_fanout(self):
        """Figure 4a at 700 subscribers: non-replicated past the CPU knee,
        3-server all-publishers still flat."""
        single = run_point("fig4a", 700, SINGLE, measure_s=8.0)
        replicated = run_point("fig4a", 700, ALL_PUBLISHERS, measure_s=8.0)
        assert single.mean_latency_s > 3 * replicated.mean_latency_s
        assert replicated.mean_latency_s < 0.250
        assert replicated.delivery_rate > 0.99

    def test_fig4a_low_fanout_equivalent(self):
        """At 100 subscribers both configurations are comfortable."""
        single = run_point("fig4a", 100, SINGLE, measure_s=8.0)
        replicated = run_point("fig4a", 100, ALL_PUBLISHERS, measure_s=8.0)
        assert single.mean_latency_s < 0.200
        assert replicated.mean_latency_s < 0.200
        assert single.delivery_rate == pytest.approx(1.0)

    def test_fig4b_nonreplicated_fails_past_200_publishers(self):
        point = run_point("fig4b", 400, SINGLE, measure_s=8.0)
        assert point.delivery_rate < 0.95
        assert point.killed_connections >= 1

    def test_fig4b_replication_survives_where_single_fails(self):
        single = run_point("fig4b", 400, SINGLE, measure_s=8.0)
        replicated = run_point("fig4b", 400, ALL_SUBSCRIBERS, measure_s=8.0)
        assert replicated.delivery_rate > 0.99
        assert replicated.killed_connections == 0
        assert replicated.delivery_rate > single.delivery_rate

    def test_fig4b_safe_at_low_publisher_count(self):
        point = run_point("fig4b", 100, SINGLE, measure_s=8.0)
        assert point.delivery_rate == pytest.approx(1.0)
        assert point.mean_latency_s < 0.200

    def test_fanout_profile_runs_under_all_subscribers(self):
        """A cell off the figures' diagonal: the fan-out profile under the
        scheme that fits fan-in.  The publisher reaches one of the three
        servers, so a subscriber holding fewer than all three would miss
        publications; at this light load none does and nothing is killed."""
        point = run_point("fig4a", 60, ALL_SUBSCRIBERS, warmup_s=1.0, measure_s=2.0)
        assert point.replicated
        assert point.delivery_rate == pytest.approx(1.0)
        assert point.killed_connections == 0
        assert point.mean_latency_s < 0.200


class TestExperiment2Smoke:
    @pytest.fixture(scope="class")
    def results(self):
        spec = SPECS["fig5-smoke"]
        return run(spec), run(with_policy(spec, "consistent_hashing"))

    def test_population_follows_ramp(self, results):
        dyn, __ = results
        pops = dyn.series.values("population")
        assert pops[0] <= 20
        assert max(pops) >= dyn.spec.population[-1][1] * 0.9

    def test_servers_scale_out_under_load(self, results):
        dyn, __ = results
        assert dyn.final_server_count > dyn.spec.initial_servers

    def test_rebalances_recorded(self, results):
        dyn, __ = results
        assert len(dyn.rebalance_times) >= 1

    def test_load_history_for_figure6(self, results):
        dyn, __ = results
        series = dyn.load_ratio_series()
        assert series
        __, avg, busiest = series[-1]
        assert busiest >= avg >= 0

    def test_dynamoth_sustains_at_least_as_many_as_ch(self, results):
        dyn, ch = results
        assert dyn.max_sustainable_players() >= ch.max_sustainable_players()

    def test_report_rendering(self, results):
        dyn, ch = results
        text5 = report.render_figure5(dyn, ch)
        assert "Figure 5" in text5 and "players" in text5
        text6 = report.render_figure6(dyn)
        assert "avg LR" in text6


class TestExperiment3Smoke:
    @pytest.fixture(scope="class")
    def result(self):
        return run(SPECS["fig7-smoke"])

    def test_population_pattern_followed(self, result):
        pops = dict((int(t), v) for t, v in result.population_series())
        # the middle of the first two plateaus (breakpoints 1-2 and 3-4)
        (t1, peak1), (t2, __), (t3, trough), (t4, __) = result.spec.population[1:5]
        assert pops[int((t1 + t2) / 2)] == pytest.approx(peak1, abs=3)
        assert pops[int((t3 + t4) / 2)] == pytest.approx(trough, abs=3)

    def test_servers_follow_load_up(self, result):
        assert result.peak_server_count() > result.spec.initial_servers

    def test_servers_released_after_drop(self, result):
        assert result.scaled_down()

    def test_report_rendering(self, result):
        text = report.render_figure7(result)
        assert "Figure 7" in text and "rebalances at" in text
