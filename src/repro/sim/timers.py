"""Resettable timers and periodic tasks on top of the event kernel.

Dynamoth relies on timers in two places (paper section IV-A.5):

* every client associates a timer with each entry of its local plan -- the
  entry is dropped when the timer expires without traffic on the channel;
* the dispatcher of an old server keeps forwarding publications for a moved
  channel until the same timeout elapses.

:class:`Timer` models exactly that resettable one-shot behaviour, and
:class:`PeriodicTask` drives recurring work such as LLA reports, load
balancer evaluations and player position updates.  A periodic task is a
start/stop handle over :meth:`Simulator.schedule_every`: the kernel's run
loop re-arms it, so a tick runs the callback and no frame of this module.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Optional

from repro.sim.kernel import ScheduledEvent, Simulator


class Timer:
    """A resettable one-shot timer.

    The callback fires ``interval`` seconds after the most recent
    :meth:`start` or :meth:`reset`.  Resetting an expired or stopped timer
    re-arms it.
    """

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]) -> None:
        if not interval > 0:  # a NaN fails it too
            raise ValueError(f"timer interval must be positive: {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event: Optional[ScheduledEvent] = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        return self._event is not None and not self._event.cancelled

    def start(self) -> None:
        """Arm (or re-arm) the timer for a full interval from now."""
        self.reset()

    def reset(self) -> None:
        """Restart the countdown from now."""
        if self._event is not None:
            self._event.cancel()
        self._event = self._sim.schedule(self.interval, self._fire)

    def cancel(self) -> None:
        """Disarm the timer without firing."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTask:
    """Invokes a callback every ``period`` seconds until stopped.

    The first invocation happens at ``start_delay`` (default: one full
    period) after :meth:`start`.  The callback receives the current virtual
    time; returning is all it must do -- rescheduling is automatic.  With
    ``jitter``, each later period is offset by ``rng.uniform(-jitter,
    jitter)``, drawn when the tick fires and before the callback runs.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], None],
        *,
        jitter: float = 0.0,
        rng: Optional[Random] = None,
    ) -> None:
        # The kernel checks the same again at each start; checked here too
        # so a bad task fails where it is built.  NaNs fail every compare.
        if not period > 0:
            raise ValueError(f"period must be positive: {period!r}")
        if not 0 <= jitter < period:
            raise ValueError(f"jitter must be in [0, period): {jitter!r}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._jitter = jitter
        self._rng = rng
        self._event: Optional[ScheduledEvent] = None

    @property
    def running(self) -> bool:
        return self._event is not None

    def start(self, start_delay: Optional[float] = None) -> None:
        """Begin the periodic schedule.  Idempotent while running."""
        if self._event is not None:
            return
        delay = self.period if start_delay is None else start_delay
        self._event = self._sim.schedule_every(
            delay, self.period, self._callback, jitter=self._jitter, rng=self._rng
        )

    def stop(self) -> None:
        """Stop future invocations.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
