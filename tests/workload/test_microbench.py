"""Tests for the fan-in / fan-out micro-benchmark workloads."""

import pytest

from repro.workload.microbench import FanInWorkload, FanOutWorkload
from tests.conftest import make_static_cluster


class TestFanOutWorkload:
    def test_all_subscribers_receive_every_publication(self):
        cluster = make_static_cluster()
        workload = FanOutWorkload(cluster, "bcast", n_subscribers=5, publications_per_s=4.0)
        cluster.run_until(1.0)
        workload.start(measure_from=1.0)
        cluster.run_until(6.0)
        workload.stop()
        cluster.run_for(1.0)
        assert workload.published >= 15
        assert len(workload.collector.samples) == workload.published_measured * 5

    def test_measure_window_excludes_warmup(self):
        cluster = make_static_cluster()
        workload = FanOutWorkload(cluster, "bcast", n_subscribers=2, publications_per_s=10.0)
        cluster.run_until(1.0)
        workload.start(measure_from=3.0)
        cluster.run_until(5.0)
        workload.stop()
        cluster.run_for(1.0)
        assert workload.published > workload.published_measured
        # only samples after the cutoff were collected
        assert all(t >= 3.0 for t, __ in workload.collector.samples)

    def test_latencies_positive_and_bounded(self):
        cluster = make_static_cluster()
        workload = FanOutWorkload(cluster, "bcast", n_subscribers=3)
        cluster.run_until(1.0)
        workload.start(measure_from=1.0)
        cluster.run_until(4.0)
        workload.stop()
        cluster.run_for(1.0)
        for latency in workload.collector.latencies():
            assert 0 < latency < 1.0

    def test_delivery_rate_is_capped_at_one(self):
        """The window opens between the first publication (t=1.1) and its
        deliveries: they count as samples but not as expected ones."""
        cluster = make_static_cluster()
        workload = FanOutWorkload(cluster, "bcast", n_subscribers=3, publications_per_s=10.0)
        cluster.run_until(1.0)
        workload.start(measure_from=1.15)
        cluster.run_until(1.25)
        workload.stop()
        cluster.run_for(1.0)
        assert len(workload.collector.samples) > workload.published_measured * 3
        assert workload.delivery_rate() == 1.0

    def test_delivery_rate_is_one_when_nothing_was_published(self):
        cluster = make_static_cluster()
        workload = FanOutWorkload(cluster, "bcast", n_subscribers=3)
        cluster.run_until(1.0)
        workload.start(measure_from=10.0)
        cluster.run_until(2.0)
        workload.stop()
        cluster.run_for(1.0)
        assert workload.published > 0 == workload.published_measured
        assert workload.delivery_rate() == 1.0


class TestFanInWorkload:
    def test_single_subscriber_receives_from_all_publishers(self):
        cluster = make_static_cluster()
        workload = FanInWorkload(cluster, "agg", n_publishers=6, publications_per_s=5.0)
        cluster.run_until(1.0)
        workload.start(measure_from=1.0)
        cluster.run_until(5.0)
        workload.stop()
        cluster.run_for(1.0)
        assert workload.delivery_rate() == pytest.approx(1.0)
        assert workload.published >= 6 * 15

    def test_publishers_staggered_not_synchronized(self):
        cluster = make_static_cluster()
        workload = FanInWorkload(cluster, "agg", n_publishers=10, publications_per_s=2.0)
        cluster.run_until(1.0)
        workload.start(measure_from=1.0)
        cluster.run_until(3.0)
        workload.stop()
        cluster.run_for(1.0)
        times = sorted(t for t, __ in workload.collector.samples)
        # arrivals spread over the window, not one burst
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) < 0.5

    def test_delivery_rate_reflects_losses(self):
        from repro.broker.config import BrokerConfig

        broker = BrokerConfig(
            per_connection_bps=5_000.0, output_buffer_limit_bytes=20_000
        )
        cluster = make_static_cluster(broker_config=broker)
        workload = FanInWorkload(cluster, "agg", n_publishers=40, publications_per_s=10.0)
        cluster.run_until(1.0)
        workload.start(measure_from=2.0)
        cluster.run_until(12.0)
        workload.stop()
        cluster.run_for(1.0)
        assert workload.delivery_rate() < 0.9  # flow far exceeds the drain
