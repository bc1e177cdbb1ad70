"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces the paper's 80-machine testbed.
It provides:

* :class:`~repro.sim.kernel.Simulator` -- a heap-based event loop with a
  virtual clock and cancellable scheduled events.
* :class:`~repro.sim.timers.PeriodicTask` -- a start/stop handle over the
  kernel's periodic schedule (RGame player ticks, per-second samplers).
* :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded random
  streams so that every experiment is reproducible bit-for-bit.
* :class:`~repro.sim.actor.Actor` -- the base class for every simulated node
  (clients, pub/sub servers, load balancer, ...).
"""

from repro.sim.actor import Actor
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTask

__all__ = [
    "Actor",
    "PeriodicTask",
    "RngRegistry",
    "ScheduledEvent",
    "Simulator",
]
