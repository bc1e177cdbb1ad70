"""Single-channel micro-benchmark workloads (Experiment 1).

Two fleets exercising one deliberately overloaded channel:

* :class:`FanOutWorkload` -- Experiment 1's *all-publishers* scenario: one
  publisher sending at a fixed rate, N subscribers.  The bottleneck is the
  fan-out work on the server (CPU + egress), relieved by replicating the
  channel under the all-publishers scheme.
* :class:`FanInWorkload` -- the *all-subscribers* scenario: N publishers
  sending at a fixed rate, one subscriber.  The bottleneck is the single
  subscriber connection (Redis output buffer overflow), relieved by the
  all-subscribers scheme.

Both record one-way delivery latency samples (publisher timestamp ->
subscriber receipt) and delivery success counts, which the Experiment 1
harness turns into the curves of Figure 4.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.client import DynamothClient
from repro.core.cluster import DynamothCluster
from repro.core.messages import AppEnvelope
from repro.sim.timers import PeriodicTask


class _LatencyCollector:
    """Collects one-way delivery latency samples after a warmup cutoff."""

    def __init__(self, cluster: DynamothCluster) -> None:
        self._cluster = cluster
        self.samples: List[Tuple[float, float]] = []
        self.measure_from = 0.0
        self.deliveries = 0

    def on_delivery(self, channel: str, body: object, envelope: AppEnvelope) -> None:
        now = self._cluster.sim.now
        self.deliveries += 1
        if now >= self.measure_from:
            self.samples.append((now, now - envelope.sent_at))

    def latencies(self) -> List[float]:
        return [latency for __, latency in self.samples]


class FanOutWorkload:
    """One publisher, many subscribers, one channel (Figure 4a setup)."""

    def __init__(
        self,
        cluster: DynamothCluster,
        channel: str,
        n_subscribers: int,
        publications_per_s: float = 10.0,
        payload_size: int = 250,
    ) -> None:
        self.cluster = cluster
        self.channel = channel
        self.payload_size = payload_size
        self.collector = _LatencyCollector(cluster)
        self.published = 0
        self.published_measured = 0
        self._measure_from = 0.0

        self.subscribers: List[DynamothClient] = []
        for i in range(n_subscribers):
            client = cluster.create_client(f"subscriber{i}")
            client.subscribe(channel, self.collector.on_delivery)
            self.subscribers.append(client)

        self.publisher = cluster.create_client("fanout-pub")
        self._task = PeriodicTask(cluster.sim, 1.0 / publications_per_s, self._tick)

    def start(self, measure_from: float) -> None:
        self.collector.measure_from = measure_from
        self._measure_from = measure_from
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    def _tick(self, now: float) -> None:
        self.publisher.publish(self.channel, ("broadcast", self.published), self.payload_size)
        self.published += 1
        if now >= self._measure_from:
            self.published_measured += 1

    def delivery_rate(self) -> float:
        """Fraction of measured-window (publication, subscriber) pairs
        actually delivered."""
        expected = self.published_measured * len(self.subscribers)
        if expected == 0:
            return 1.0
        return min(1.0, len(self.collector.samples) / expected)


class FanInWorkload:
    """Many publishers, one subscriber, one channel (Figure 4b setup)."""

    def __init__(
        self,
        cluster: DynamothCluster,
        channel: str,
        n_publishers: int,
        publications_per_s: float = 10.0,
        payload_size: int = 250,
    ) -> None:
        self.cluster = cluster
        self.channel = channel
        self.payload_size = payload_size
        self.collector = _LatencyCollector(cluster)
        self.published = 0
        self.published_measured = 0

        self.subscriber = cluster.create_client("fanin-sub")
        self.subscriber.subscribe(channel, self.collector.on_delivery)

        rng = cluster.rng.stream("fanin")
        self.publishers: List[DynamothClient] = []
        self._tasks: List[PeriodicTask] = []
        period = 1.0 / publications_per_s
        for i in range(n_publishers):
            client = cluster.create_client(f"publisher{i}")
            task = PeriodicTask(
                cluster.sim,
                period,
                self._make_tick(client),
                jitter=0.4 * period,
                rng=rng,
            )
            self.publishers.append(client)
            self._tasks.append(task)
        self._measure_from = 0.0
        self._stagger_rng = rng

    def _make_tick(self, client: DynamothClient) -> Callable[[float], None]:
        def tick(now: float) -> None:
            client.publish(self.channel, ("update", client.node_id), self.payload_size)
            self.published += 1
            if now >= self._measure_from:
                self.published_measured += 1

        return tick

    def start(self, measure_from: float) -> None:
        self.collector.measure_from = measure_from
        self._measure_from = measure_from
        for task in self._tasks:
            # Stagger publishers uniformly over one period.
            task.start(start_delay=self._stagger_rng.random() * task.period)

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()

    def delivery_rate(self) -> float:
        """Fraction of measured-window publications actually delivered."""
        if self.published_measured == 0:
            return 1.0
        delivered = len(self.collector.samples)
        return min(1.0, delivered / self.published_measured)
