"""Population schedules: how many clients should be active at time t.

Experiments 2 and 3 drive the system with a time-varying player count --
a slow ramp for the scalability experiment, an up/down/up step pattern for
the elasticity experiment.  A :class:`PopulationSchedule` is simply a
piecewise-linear function of time; the workload driver periodically
compares the target with the live population and adds/removes players.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple


class PopulationSchedule:
    """Piecewise-linear target population over time.

    Built from ``(time, population)`` breakpoints; values are linearly
    interpolated between breakpoints and clamped at the ends.
    """

    def __init__(self, breakpoints: Sequence[Tuple[float, int]]) -> None:
        if not breakpoints:
            raise ValueError("schedule needs at least one breakpoint")
        times = [t for t, __ in breakpoints]
        if sorted(times) != times:
            raise ValueError("breakpoints must be sorted by time")
        if any(p < 0 for __, p in breakpoints):
            raise ValueError("populations must be non-negative")
        self._times: List[float] = list(times)
        self._pops: List[int] = [p for __, p in breakpoints]

    def target(self, time: float) -> int:
        """Target population at ``time`` (linear interpolation)."""
        times, pops = self._times, self._pops
        if time <= times[0]:
            return pops[0]
        if time >= times[-1]:
            return pops[-1]
        index = bisect.bisect_right(times, time)
        t0, t1 = times[index - 1], times[index]
        p0, p1 = pops[index - 1], pops[index]
        fraction = (time - t0) / (t1 - t0)
        return round(p0 + fraction * (p1 - p0))

    @property
    def end_time(self) -> float:
        return self._times[-1]

    @property
    def peak(self) -> int:
        return max(self._pops)


def ramp(start_pop: int, end_pop: int, duration: float, *, t0: float = 0.0) -> PopulationSchedule:
    """A linear ramp, e.g. Experiment 2's slow join of players."""
    return PopulationSchedule([(t0, start_pop), (t0 + duration, end_pop)])


def steps(segments: Sequence[Tuple[float, int]]) -> PopulationSchedule:
    """Convenience alias: a schedule straight from breakpoints.

    Experiment 3's pattern is e.g.::

        steps([(0, 0), (200, 800), (260, 800), (330, 200),
               (390, 200), (470, 580), (600, 580)])
    """
    return PopulationSchedule(segments)
