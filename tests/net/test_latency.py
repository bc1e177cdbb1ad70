"""Unit tests for latency models."""

import math
from random import Random

import pytest

from repro.net.latency import FixedLatency, KingLatencyModel, LanLatency, UniformLatency


class TestFixedLatency:
    def test_constant(self, rng: Random):
        model = FixedLatency(0.05)
        assert [model.sample(rng) for __ in range(3)] == [0.05, 0.05, 0.05]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-0.1)


class TestUniformLatency:
    def test_within_bounds(self, rng: Random):
        model = UniformLatency(0.01, 0.03)
        for __ in range(200):
            assert 0.01 <= model.sample(rng) <= 0.03

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(0.05, 0.01)


class TestLanLatency:
    def test_within_bounds(self, rng: Random):
        model = LanLatency(base=0.0003, jitter=0.0004)
        for __ in range(200):
            assert 0.0003 <= model.sample(rng) <= 0.0007

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            LanLatency(base=-1)


class TestKingLatencyModel:
    def test_clamped_to_floor_and_ceiling(self, rng: Random):
        model = KingLatencyModel(median=0.03, sigma=2.0, floor=0.01, ceiling=0.05)
        samples = [model.sample(rng) for __ in range(500)]
        assert all(0.01 <= s <= 0.05 for s in samples)
        assert min(samples) == 0.01  # heavy tails actually hit the clamps
        assert max(samples) == 0.05

    def test_median_roughly_matches(self):
        model = KingLatencyModel(median=0.0325)
        rng = Random(0)
        samples = sorted(model.sample(rng) for __ in range(20_000))
        empirical_median = samples[len(samples) // 2]
        assert 0.029 <= empirical_median <= 0.036

    def test_long_right_tail(self):
        """King-like distributions have p95 well above the median."""
        model = KingLatencyModel()
        rng = Random(1)
        samples = sorted(model.sample(rng) for __ in range(20_000))
        p50 = samples[len(samples) // 2]
        p95 = samples[int(0.95 * len(samples))]
        assert p95 > 1.8 * p50

    def test_sample_is_clamped_lognormvariate_draw_for_draw(self):
        """``sample`` runs the normal-variate loop itself; it must stay, bit
        for bit, ``exp(rng.normalvariate(mu, sigma))`` clamped, leaving the
        stream where the stdlib call leaves it."""
        model = KingLatencyModel()
        mu = math.log(model.median)
        rng, twin = Random(42), Random(42)
        for __ in range(10_000):
            expected = math.exp(twin.normalvariate(mu, model.sigma))
            expected = min(model.ceiling, max(model.floor, expected))
            assert model.sample(rng) == expected
        assert rng.random() == twin.random()

    def test_mean_formula(self):
        model = KingLatencyModel(median=0.03, sigma=0.5)
        # lognormal mean = exp(mu + sigma^2/2)
        assert model.mean() == pytest.approx(0.03 * 2.718281828459045 ** (0.125), rel=1e-9)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            KingLatencyModel(median=0)
        with pytest.raises(ValueError):
            KingLatencyModel(sigma=0)
        with pytest.raises(ValueError):
            KingLatencyModel(floor=0.1, ceiling=0.05)
