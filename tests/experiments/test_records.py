"""Unit tests for experiment recording utilities."""

import pytest

from repro.experiments.records import BucketedStat, Sampler, SeriesRecorder
from repro.sim.kernel import Simulator


class TestBucketedStat:
    def test_mean_series(self):
        stat = BucketedStat()
        stat.add(0.2, 10.0)
        stat.add(0.8, 20.0)
        stat.add(1.5, 30.0)
        assert stat.mean_series() == [(0, 15.0), (1, 30.0)]
        assert stat.count == 3

    def test_window_mean(self):
        stat = BucketedStat()
        for t in range(10):
            stat.add(t + 0.5, float(t))
        assert stat.window_mean(2, 5) == pytest.approx((2 + 3 + 4) / 3)
        assert stat.window_mean(100, 200) is None

    def test_max_tracked_per_bucket(self):
        stat = BucketedStat()
        stat.add(0.1, 5.0)
        stat.add(0.2, 50.0)
        stat.add(0.3, 20.0)
        assert stat._buckets[0][2] == 50.0


class TestSeriesRecorder:
    def test_record_and_get(self):
        rec = SeriesRecorder()
        rec.record("pop", 1.0, 10.0)
        rec.record("pop", 2.0, 12.0)
        assert rec.get("pop") == [(1.0, 10.0), (2.0, 12.0)]
        assert rec.values("pop") == [10.0, 12.0]
        assert rec.max("pop") == 12.0

    def test_empty_series(self):
        rec = SeriesRecorder()
        assert rec.get("nope") == []
        assert rec.max("nope") is None


class TestSampler:
    def test_gauges_sampled_periodically(self):
        sim = Simulator()
        rec = SeriesRecorder()
        sampler = Sampler(sim, rec, period=1.0)
        sampler.add_gauge("t", lambda now: now * 2)
        sampler.start(start_delay=1.0)
        sim.run_until(3.5)
        assert rec.get("t") == [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]

    def test_rate_gauge_differences_counter(self):
        sim = Simulator()
        rec = SeriesRecorder()
        counter = {"v": 0}
        sampler = Sampler(sim, rec, period=1.0)
        sampler.add_rate_gauge("rate", lambda: counter["v"])

        def bump():
            counter["v"] += 7
            sim.schedule(1.0, bump)

        sim.schedule(0.5, bump)
        sampler.start(start_delay=1.0)
        sim.run_until(4.5)
        values = rec.values("rate")
        assert values[0] == 0.0  # first sample has no baseline
        assert all(v == pytest.approx(7.0) for v in values[1:])

    def test_stop(self):
        sim = Simulator()
        rec = SeriesRecorder()
        sampler = Sampler(sim, rec, period=1.0)
        sampler.add_gauge("x", lambda now: 1.0)
        sampler.start(start_delay=1.0)
        sim.run_until(2.0)
        sampler.stop()
        sim.run_until(10.0)
        assert len(rec.get("x")) == 2
