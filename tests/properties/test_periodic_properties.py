"""Property: the kernel's periodic entry is the self-re-arming task it replaced.

``Simulator.schedule_every`` re-queues a periodic handle inside the run
loop.  ``_ReferenceTask`` is ``PeriodicTask`` as it was when its ``_tick``
re-armed itself through ``Simulator.schedule`` (copied as it was).  One
random script drives tasks with and without jitter, one-shot events at the
same instants and actions taken from inside callbacks -- a task stopping
itself, stopping and restarting itself in one instant, stopping or
starting another task, a burst of stopped tasks large enough to compact the
queue -- once through ``PeriodicTask`` and once through the reference, on
two simulators.  Every callback must fire at the same instant (``==``), in
the same order, and see the same ``pending_count``; the compaction counts
and the queue left at the end must match too.
"""

from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.timers import PeriodicTask


class _ReferenceTask:
    """``PeriodicTask`` while ``_tick`` re-armed it through ``sim.schedule``."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], None],
        *,
        jitter: float = 0.0,
        rng: Optional[Random] = None,
    ) -> None:
        self._sim = sim
        self.period = period
        self._callback = callback
        self._jitter = jitter
        self._rng = rng
        self._event: Optional[ScheduledEvent] = None
        self._running = False

    def start(self, start_delay: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        delay = self.period if start_delay is None else start_delay
        self._event = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        delay = self.period
        jitter = self._jitter
        if jitter > 0:
            assert self._rng is not None
            delay += -jitter + (jitter - -jitter) * self._rng.random()
        self._event = self._sim.schedule(delay, self._tick)
        self._callback(self._sim.now)


#: periods and start delays on a binary grid, so unjittered ticks and
#: one-shot events land on equal instants
PERIODS = (0.25, 0.5, 1.0, 1.0 / 3.0)
DELAYS = (None, 0.0, 0.25, 0.5, 0.75)
#: what a callback may do on a given fire: ("stop", j), ("restart", j),
#: ("start", j) or ("oneshot", delay)
ACTION = st.one_of(
    st.tuples(st.sampled_from(("stop", "restart", "start")), st.integers(0, 5)),
    st.tuples(st.just("oneshot"), st.sampled_from((0.0, 0.25, 0.5))),
)

TASK = st.tuples(
    st.sampled_from(PERIODS),
    st.booleans(),  # jittered
    st.sampled_from(DELAYS),
    st.integers(0, 2**16),  # rng seed
)

SCRIPT = st.fixed_dictionaries(
    {
        "tasks": st.lists(TASK, min_size=1, max_size=6),
        # (task index, fire number) -> action taken inside that fire
        "actions": st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 6)), ACTION, max_size=8
        ),
        # one-shot events before the run: (time on the grid, action or None)
        "oneshots": st.lists(
            st.tuples(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5, 2.0)), st.one_of(st.none(), ACTION)),
            max_size=6,
        ),
        # a burst of tasks started at 0 and stopped at this instant (None: no burst)
        "burst": st.one_of(st.none(), st.sampled_from((0.5, 1.0, 1.25))),
        "burst_size": st.integers(70, 110),
    }
)

HORIZON = 4.0
CHECKPOINTS = (0.5, 1.0, 2.5, HORIZON)

Log = List[Tuple[str, float, int]]


def _run(script: Dict, make: Callable[..., object]) -> Tuple[Log, List[Tuple[int, int, int]]]:
    sim = Simulator()
    log: Log = []
    tasks: List = []
    fires: Dict[int, int] = {}

    def act(action: Optional[Tuple[str, object]]) -> None:
        if action is None:
            return
        kind, arg = action
        if kind == "oneshot":
            sim.schedule(arg, lambda: log.append(("oneshot*", sim.now, sim.pending_count)))
            return
        task = tasks[arg % len(tasks)]
        if kind == "stop":
            task.stop()
        elif kind == "restart":
            task.stop()
            task.start()
        else:
            task.start(start_delay=0.0)

    def callback(index: int) -> Callable[[float], None]:
        def tick(now: float) -> None:
            assert now == sim.now
            fire = fires.get(index, 0)
            fires[index] = fire + 1
            log.append((f"task{index}", now, sim.pending_count))
            act(script["actions"].get((index, fire)))

        return tick

    for index, (period, jittered, delay, seed) in enumerate(script["tasks"]):
        jitter = period / 5 if jittered else 0.0
        task = make(sim, period, callback(index), jitter=jitter, rng=Random(seed))
        tasks.append(task)
        task.start(start_delay=delay)
    for when, action in script["oneshots"]:
        sim.schedule_at(
            when,
            lambda action=action: (log.append(("oneshot", sim.now, sim.pending_count)), act(action)),
        )
    if script["burst"] is not None:
        burst = [make(sim, 0.25, lambda now: None) for _ in range(script["burst_size"])]
        for task in burst:
            task.start(start_delay=0.0)

        def stop_burst() -> None:
            for task in burst:
                task.stop()
            log.append(("burst-stopped", sim.now, sim.pending_count))

        sim.schedule_at(script["burst"], stop_burst)

    states = []
    for checkpoint in CHECKPOINTS:
        sim.run_until(checkpoint)
        states.append((sim.pending_count, sim.cancelled_pending, sim.compactions))
    return log, states


@settings(max_examples=150, deadline=None)
@given(script=SCRIPT)
def test_schedule_every_fires_as_the_self_rearming_task(script):
    log, states = _run(script, PeriodicTask)
    reference_log, reference_states = _run(script, _ReferenceTask)
    assert log == reference_log
    assert states == reference_states


def test_a_stopped_burst_compacts_the_queue_in_both():
    script = {
        "tasks": [(0.25, True, 0.0, 1), (1.0 / 3.0, False, None, 2)],
        "actions": {(0, 2): ("restart", 0), (1, 1): ("stop", 0), (1, 3): ("start", 0)},
        "oneshots": [(1.0, ("stop", 1)), (1.0, None)],
        "burst": 1.0,
        "burst_size": 100,
    }
    log, states = _run(script, PeriodicTask)
    assert (log, states) == _run(script, _ReferenceTask)
    assert states[-1][2] >= 1  # the burst's stop compacted the queue
    assert any(name == "task0" for name, _t, _n in log)
