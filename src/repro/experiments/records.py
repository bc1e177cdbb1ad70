"""Low-footprint time-series recording for long experiment runs.

A scalability run produces millions of response-time samples; keeping each
one would dominate memory.  :class:`BucketedStat` aggregates samples into
per-second ``(count, sum, max)`` buckets online -- enough to draw every
"average X over time" figure.  :class:`Sampler` snapshots cluster gauges (population, server
count, cumulative deliveries, load ratios) once per second, yielding the
series behind Figures 5, 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask


class BucketedStat:
    """Per-second aggregation of a streaming metric."""

    def __init__(self) -> None:
        self._buckets: Dict[int, List[float]] = {}  # second -> [count, sum, max]
        #: samples added
        self.count = 0

    def add(self, time: float, value: float) -> None:
        bucket = self._buckets.get(int(time))
        if bucket is None:
            self._buckets[int(time)] = [1.0, value, value]
        else:
            bucket[0] += 1
            bucket[1] += value
            if value > bucket[2]:
                bucket[2] = value
        self.count += 1

    def mean_series(self) -> List[Tuple[int, float]]:
        """``(second, mean)`` pairs, sorted by time."""
        return [
            (second, bucket[1] / bucket[0])
            for second, bucket in sorted(self._buckets.items())
        ]

    def window_mean(self, start: float, end: float) -> Optional[float]:
        """Mean of all samples with ``start <= t < end`` (None if empty)."""
        count = total = 0.0
        for second, bucket in self._buckets.items():
            if start <= second < end:
                count += bucket[0]
                total += bucket[1]
        return total / count if count else None


@dataclass
class SeriesRecorder:
    """Named (time, value) series with aligned sampling."""

    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def record(self, name: str, time: float, value: float) -> None:
        self.series.setdefault(name, []).append((time, value))

    def get(self, name: str) -> List[Tuple[float, float]]:
        return self.series.get(name, [])

    def values(self, name: str) -> List[float]:
        return [v for __, v in self.get(name)]

    def max(self, name: str) -> Optional[float]:
        points = self.get(name)
        return max(v for __, v in points) if points else None


class Sampler:
    """Periodically evaluates gauges and appends them to a recorder.

    Gauges are callables taking the current time; rate gauges can be built
    from cumulative counters via :meth:`add_rate_gauge`.
    """

    def __init__(self, sim: Simulator, recorder: SeriesRecorder, period: float = 1.0):
        self.recorder = recorder
        self._gauges: Dict[str, Callable[[float], float]] = {}
        self._task = PeriodicTask(sim, period, self._sample)

    def add_gauge(self, name: str, fn: Callable[[float], float]) -> None:
        self._gauges[name] = fn

    def add_rate_gauge(self, name: str, counter_fn: Callable[[], float]) -> None:
        """Record the per-second rate of a monotonically growing counter."""
        state = {"last_t": None, "last_v": 0.0}

        def gauge(now: float) -> float:
            value = counter_fn()
            if state["last_t"] is None:
                rate = 0.0
            else:
                dt = now - state["last_t"]
                rate = (value - state["last_v"]) / dt if dt > 0 else 0.0
            state["last_t"] = now
            state["last_v"] = value
            return rate

        self._gauges[name] = gauge

    def start(self, start_delay: float = 0.0) -> None:
        self._task.start(start_delay=start_delay)

    def stop(self) -> None:
        self._task.stop()

    def _sample(self, now: float) -> None:
        for name, gauge in self._gauges.items():
            self.recorder.record(name, now, gauge(now))
