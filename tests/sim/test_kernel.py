"""Unit tests for the discrete-event kernel."""

import ast
from pathlib import Path

from random import Random

import pytest

from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask, Timer

NAN = float("nan")


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [2.5]

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "payload")
        sim.run_until(2.0)
        assert seen == ["payload"]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run_until(5.0)
        assert order == [1, 2, 3]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run_until(1.0)
        assert order == list(range(10))

    def test_zero_delay_runs_after_current_instant_events(self, sim):
        order = []
        sim.schedule(1.0, lambda: (order.append("a"), sim.schedule(0.0, order.append, "c")))
        sim.schedule(1.0, order.append, "b")
        sim.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(3.0, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [4.0]


class TestNaNRejected:
    """A NaN time fails every ordering compare, so unchecked it would sit in
    the heap wherever it landed (it ran before events at t = 1 and t = 2).
    Every entry point rejects it and leaves the queue as it found it."""

    @staticmethod
    def _queued(sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule_batch(lambda: None, [2.0, 3.0], [(), ()])
        return sim.pending_count, list(sim._heap), sim._seq

    def _rejects(self, sim, make):
        before = self._queued(sim)
        with pytest.raises(ValueError):
            make()
        assert (sim.pending_count, list(sim._heap), sim._seq) == before

    def test_schedule(self, sim):
        self._rejects(sim, lambda: sim.schedule(NAN, lambda: None))

    def test_schedule_at(self, sim):
        self._rejects(sim, lambda: sim.schedule_at(NAN, lambda: None))

    def test_schedule_every_delay(self, sim):
        self._rejects(sim, lambda: sim.schedule_every(NAN, 1.0, lambda now: None))

    def test_schedule_every_period(self, sim):
        self._rejects(sim, lambda: sim.schedule_every(0.0, NAN, lambda now: None))

    def test_schedule_every_jitter(self, sim):
        self._rejects(
            sim, lambda: sim.schedule_every(0.0, 1.0, lambda now: None, jitter=NAN, rng=Random(0))
        )

    @pytest.mark.parametrize(
        "times", [[NAN], [NAN, 1.0], [1.0, NAN], [1.0, NAN, 2.0], [2.0, 1.0, NAN]]
    )
    def test_schedule_batch(self, sim, times):
        self._rejects(sim, lambda: sim.schedule_batch(lambda: None, times, [()] * len(times)))

    def test_timer(self, sim):
        self._rejects(sim, lambda: Timer(sim, NAN, lambda: None))

    def test_periodic_task_period(self, sim):
        self._rejects(sim, lambda: PeriodicTask(sim, NAN, lambda now: None))

    def test_periodic_task_jitter(self, sim):
        self._rejects(
            sim, lambda: PeriodicTask(sim, 1.0, lambda now: None, jitter=NAN, rng=Random(0))
        )

    def test_periodic_task_start_delay(self, sim):
        task = PeriodicTask(sim, 1.0, lambda now: None)
        self._rejects(sim, lambda: task.start(start_delay=NAN))
        assert not task.running


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        handle = sim.schedule(1.0, seen.append, "x")
        handle.cancel()
        sim.run_until(2.0)
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run_until(2.0)

    def test_cancel_releases_references(self, sim):
        big = object()
        handle = sim.schedule(1.0, lambda x: None, big)
        handle.cancel()
        assert handle.args == ()
        assert handle.fn is None


class TestRunControl:
    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_run_until_does_not_execute_future_events(self, sim):
        seen = []
        sim.schedule(5.0, seen.append, "later")
        sim.run_until(4.999)
        assert seen == []
        sim.run_until(5.0)
        assert seen == ["later"]

    def test_run_backwards_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(4.0)

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_run_drains_heap(self, sim):
        seen = []
        for i in range(5):
            sim.schedule(float(i), seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]
        assert sim.pending_count == 0

    def test_run_max_events_guards_runaway(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_events_processed_counter(self, sim):
        for i in range(7):
            sim.schedule(0.1 * i, lambda: None)
        sim.run_until(1.0)
        assert sim.events_processed == 7

    def test_self_rescheduling_periodic_pattern(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if sim.now < 5.0:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_event_scheduled_during_run_at_same_time_fires(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, seen.append, "nested"))
        sim.run_until(1.0)
        assert seen == ["nested"]


class TestHeapCompaction:
    def test_mass_cancellation_triggers_compaction(self, sim):
        events = [sim.schedule(1000.0 + i, lambda: None) for i in range(100)]
        sim.schedule(1.0, lambda: None)  # one live event keeps the heap warm
        assert sim.compactions == 0
        for event in events:
            event.cancel()
        # >50% of the heap became cancelled tombstones -> compacted away.
        # (Cancels after the compaction stay below the re-trigger floor.)
        assert sim.compactions >= 1
        assert sim.pending_count < 101  # memory actually freed
        assert sim.pending_count - sim.cancelled_pending == 1  # one live event

    def test_small_heaps_are_never_compacted(self, sim):
        events = [sim.schedule(10.0 + i, lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0
        assert sim.cancelled_pending == 10

    def test_compaction_does_not_change_results(self, sim):
        seen = []
        doomed = [sim.schedule(500.0 + i, seen.append, "never") for i in range(200)]
        for i in range(5):
            sim.schedule(float(i + 1), seen.append, i)
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        late = sim.schedule(6.0, seen.append, "late")
        sim.run_until(10.0)
        assert seen == [0, 1, 2, 3, 4, "late"]
        assert late.cancelled  # executed events release their slot
        assert sim.pending_count == 0

    def test_pop_path_keeps_tombstone_count_consistent(self, sim):
        # Cancelled events that are popped (not compacted) must decrement
        # the pending-cancelled counter.
        events = [sim.schedule(1.0, lambda: None) for i in range(20)]
        for event in events[::2]:
            event.cancel()
        sim.run_until(2.0)
        assert sim.cancelled_pending == 0
        assert sim.pending_count == 0


class TestClockHasOneWriter:
    """``Simulator.now`` is a plain attribute (reading it costs no frame);
    what a read-only property used to enforce, this does."""

    def test_now_is_a_plain_attribute(self, sim):
        assert not isinstance(vars(Simulator).get("now"), property)
        assert vars(sim)["now"] == 0.0
        assert not hasattr(sim, "_now")

    def test_only_the_kernel_assigns_the_clock(self):
        src = Path(__file__).resolve().parents[2] / "src"
        writers = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Attribute) and leaf.attr == "now":
                            writers.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
        assert writers and all(w.startswith("repro/sim/kernel.py:") for w in writers), writers
