"""Tests for the kernel's hot-path machinery.

Covers the one run loop behind ``run_until`` / ``run`` / ``step``, the
fire-and-forget ``schedule_batch`` path (one cursor entry per batch,
checked against a per-item reference queue), its interaction with
compaction, the run loop's GC policy, and the clean failure state of
``run(max_events=...)``.
"""

import gc
import heapq
import inspect
from random import Random

import pytest

from repro.sim.kernel import Simulator


def _mixed_workload(sim: Simulator, log: list) -> None:
    """A deterministic workload mixing ties, nesting, and cancellations."""
    rng = Random(7)
    for i in range(200):
        sim.schedule_at(round(rng.uniform(0.0, 3.0), 3), log.append, ("a", i))
    # Exact ties: insertion order must win.
    for i in range(20):
        sim.schedule_at(1.5, log.append, ("tie", i))
    # Nested scheduling, including zero-delay.
    def nest(depth: int) -> None:
        log.append(("nest", depth, sim.now))
        if depth:
            sim.schedule(0.0, nest, depth - 1)
            sim.schedule(0.004, nest, 0)
    sim.schedule_at(2.0, nest, 3)
    # Cancellations interleaved with live events.
    doomed = [sim.schedule_at(2.5, log.append, ("never", i)) for i in range(50)]
    for handle in doomed[::2]:
        handle.cancel()
    sim.schedule_at(2.5, lambda: [h.cancel() for h in doomed[1::2]])
    # A batch of fire-and-forget events.
    times = [0.25 * k for k in range(1, 9)]
    sim.schedule_batch(log.append, times, [(("batch", k),) for k in range(8)])


def _drive(sim: Simulator, drive: str) -> None:
    if drive == "run_until":
        sim.run_until(1_000.0)
    elif drive == "run":
        sim.run()
    else:
        while sim.step():
            pass


class TestOneLoop:
    """``run_until``, ``run`` and ``step`` are thin callers of one loop."""

    def test_simulator_takes_no_options(self):
        assert list(inspect.signature(Simulator.__init__).parameters) == ["self"]

    def test_step_run_and_run_until_agree(self):
        logs = []
        for drive in ("run_until", "run", "step"):
            sim = Simulator()
            log: list = []
            _mixed_workload(sim, log)
            _drive(sim, drive)
            assert sim.pending_count == 0
            logs.append(log)
        assert logs[0] == logs[1] == logs[2]

    @pytest.mark.parametrize("drive", ["run_until", "run", "step"])
    def test_compaction_inside_a_callback_is_picked_up(self, drive):
        # The loop (and the transport) hold the heap list; a compaction
        # triggered by an executing event rebuilds it in place.
        sim = Simulator()
        heap = sim._heap
        fired = []
        doomed = [sim.schedule_at(50.0 + i, fired.append, "never") for i in range(200)]
        sim.schedule_at(1.0, lambda: [h.cancel() for h in doomed])
        sim.schedule_at(2.0, fired.append, "after")
        _drive(sim, drive)
        assert sim.compactions >= 1
        assert fired == ["after"]
        assert sim.pending_count == 0
        assert sim._heap is heap

    def test_idle_insert_before_the_pending_remainder_runs_first(self):
        sim = Simulator()
        order: list = []
        sim.schedule_at(1.000, order.append, "first")
        sim.schedule_at(1.009, order.append, "remainder")
        sim.run_until(1.000)
        assert order == ["first"]
        # The clock idles behind the remainder; earlier inserts, via a
        # handle and via the batch path, must still come first.
        sim.schedule_at(1.002, order.append, "earlier-handle")
        sim.schedule_batch(order.append, [1.003], [("earlier-batch",)])
        sim.run_until(2.0)
        assert order == ["first", "earlier-handle", "earlier-batch", "remainder"]


class _ReferenceQueue:
    """The kernel's order kept the plain way: one heap entry per event.

    A batch item is its own ``(time, seq, cell)`` entry with the next
    sequence number, and a cancel empties its cell.  Only the ordering
    contract is modelled -- no compaction, no hooks.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: list = []

    def schedule_at(self, time, fn, *args):
        cell = [fn, args]
        heapq.heappush(self._heap, (time, self._seq, cell))
        self._seq += 1
        return _ReferenceHandle(cell)

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_batch(self, fn, times, args_seq):
        for time, args in zip(times, args_seq):
            self.schedule_at(time, fn, *args)
        return len(times)

    def step(self) -> bool:
        while self._heap:
            time, _, cell = heapq.heappop(self._heap)
            if cell[0] is not None:
                self.now = time
                fn, args = cell
                cell[0] = None
                fn(*args)
                return True
        return False

    @property
    def live(self) -> int:
        return sum(1 for _, _, cell in self._heap if cell[0] is not None)


class _ReferenceHandle:
    def __init__(self, cell: list) -> None:
        self._cell = cell

    def cancel(self) -> None:
        self._cell[0] = None


def _random_scenario(queue, log: list, seed: int) -> None:
    """Seeded mix of ``schedule_at``, unsorted batches with ties, nested
    scheduling from callbacks, and cancellations (before and during the
    run, enough of them to compact).  Times sit on a 1 ms grid so events
    outside a batch tie with its items too."""
    rng = Random(seed)
    handles: list = []

    def at(ticks: int) -> float:
        time = (round(queue.now * 1000) + ticks) / 1000
        return time if time >= queue.now else queue.now

    def record(tag) -> None:
        log.append((queue.now, tag))

    def spawn(tag) -> None:
        log.append((queue.now, "spawn", tag))
        if len(log) > 3_000:
            return
        roll = rng.random()
        if roll < 0.35:
            n = rng.randint(1, 7)
            fn = rng.choice((record, spawn))
            times = [at(rng.choice((0, 0, 1, 2, rng.randrange(10)))) for _ in range(n)]
            queue.schedule_batch(fn, times, [((tag, k),) for k in range(n)])
        elif roll < 0.55:
            handles.append(queue.schedule_at(at(rng.randrange(4)), spawn, (tag, "s")))
        elif roll < 0.7 and handles:
            handles[rng.randrange(len(handles))].cancel()

    for i in range(120):
        handles.append(queue.schedule_at(rng.randrange(200) / 1000, rng.choice((record, spawn)), i))
    for b in range(25):
        n = rng.randint(2, 12)
        times = [rng.randrange(150) / 1000 for _ in range(n)]
        queue.schedule_batch(spawn, times, [(("batch", b, k),) for k in range(n)])
    for handle in handles[:40:3]:
        handle.cancel()
    doomed = [queue.schedule_at(1.0 + i / 1000, record, ("doomed", i)) for i in range(150)]
    queue.schedule_at(0.05, lambda: [h.cancel() for h in doomed])


class TestAgainstPerItemReference:
    """One cursor per batch executes exactly what one entry per item did."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("drive", ["run_until", "run", "step"])
    def test_execution_log_matches_the_reference(self, seed, drive):
        ref = _ReferenceQueue()
        expected: list = []
        _random_scenario(ref, expected, seed)
        while ref.step():
            pass

        sim = Simulator()
        log: list = []
        _random_scenario(sim, log, seed)
        if drive == "run_until":
            # Horizons off the grid and on it: some stop inside a batch.
            for horizon in (0.0, 0.0105, 0.02, 0.037, 0.05, 0.0999, 0.15, 10.0):
                sim.run_until(horizon)
        elif drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        assert log == expected
        assert len(expected) > 300
        assert sim.compactions >= 1
        assert sim.pending_count == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_pending_count_is_exact_at_every_stop(self, seed):
        ref = _ReferenceQueue()
        expected: list = []
        _random_scenario(ref, expected, seed)
        sim = Simulator()
        log: list = []
        _random_scenario(sim, log, seed)
        assert sim.pending_count - sim.cancelled_pending == ref.live
        while True:
            try:
                sim.run(max_events=13)
                break
            except RuntimeError:
                assert sim.running is False
            for _ in range(13):
                ref.step()
            assert log == expected
            assert sim.pending_count - sim.cancelled_pending == ref.live
        while ref.step():
            pass
        assert log == expected


class TestScheduleBatch:
    def test_parallel_sequences(self, sim):
        seen = []
        count = sim.schedule_batch(
            lambda tag, n: seen.append((tag, n)),
            [0.3, 0.1, 0.2],
            [("a", 0), ("b", 1), ("c", 2)],
        )
        assert count == 3
        sim.run_until(1.0)
        assert seen == [("b", 1), ("c", 2), ("a", 0)]

    def test_past_time_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_batch(lambda: None, [4.0], [()])

    def test_rejected_batch_is_atomic(self, sim):
        # Regression: a past timestamp mid-batch used to raise after the
        # earlier entries were pushed but before the sequence counter was
        # committed, so the next schedule_at reused their seq numbers and
        # the (time, seq) tie fell through to comparing None with a handle.
        fired = []
        sim.run_until(1.0)
        with pytest.raises(ValueError):
            sim.schedule_batch(fired.append, [2.0, 0.5], [("a",), ("b",)])
        assert sim.pending_count == 0
        sim.schedule_at(2.0, fired.append, "ok")
        sim.run_until(3.0)
        assert fired == ["ok"]

    def test_empty_batch(self, sim):
        assert sim.schedule_batch(lambda: None, [], []) == 0
        assert sim.pending_count == 0

    def test_ties_with_schedule_interleave_by_insertion(self, sim):
        order = []
        sim.schedule_at(1.0, order.append, "plain-1")
        sim.schedule_batch(order.append, [1.0, 1.0], [("batch-1",), ("batch-2",)])
        sim.schedule_at(1.0, order.append, "plain-2")
        sim.run_until(1.0)
        assert order == ["plain-1", "batch-1", "batch-2", "plain-2"]

    def test_batch_entries_are_fire_and_forget(self, sim):
        # A batch carries no ScheduledEvent handle at all: the queue holds
        # one (time, seq, None, fn, args_seq, times, j) cursor for it,
        # while pending_count still counts every undelivered item.
        sim.schedule_batch(lambda: None, [0.1] * 16, [()] * 16)
        assert len(sim._heap) == 1
        (cursor,) = sim._heap
        assert len(cursor) == 7 and cursor[2] is None and cursor[6] == 0
        assert sim.pending_count == 16
        sim.run_until(1.0)
        assert sim.pending_count == 0
        assert sim._heap == []

    def test_step_inside_a_batch_runs_exactly_one_item(self, sim):
        fired = []
        sim.schedule_batch(fired.append, [0.1, 0.1, 0.2, 0.3], [(k,) for k in range(4)])
        for k in range(4):
            assert sim.pending_count == 4 - k
            assert sim.step() is True
            assert fired == list(range(k + 1))
            assert len(sim._heap) == (1 if k < 3 else 0)
        assert sim.step() is False
        assert sim.pending_count == 0

    def test_unsorted_batch_keeps_index_order_on_ties(self, sim):
        order = []
        sim.schedule_at(0.2, order.append, "before")
        sim.schedule_batch(
            order.append, [0.3, 0.2, 0.1, 0.2, 0.3], [(k,) for k in range(5)]
        )
        sim.schedule_at(0.2, order.append, "after")
        sim.run()
        assert order == [2, "before", 1, 3, "after", 0, 4]

    def test_the_kernel_keeps_sorted_input_and_copies_unsorted_input(self, sim):
        times, args_seq = [0.1, 0.2], [("a",), ("b",)]
        sim.schedule_batch(lambda tag: None, times, args_seq)
        assert sim._heap[0][4] is args_seq and sim._heap[0][5] is times
        unsorted_times, unsorted_args = [0.2, 0.1], [("a",), ("b",)]
        sim.schedule_batch(lambda tag: None, unsorted_times, unsorted_args)
        cursor = max(sim._heap, key=lambda entry: entry[1])
        assert cursor[5] == [0.1, 0.2] and cursor[4] == [("b",), ("a",)]
        assert unsorted_times == [0.2, 0.1]  # the caller's lists are not sorted in place

    def test_mismatched_lengths_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_batch(lambda: None, [0.1, 0.2], [()])
        assert sim.pending_count == 0

    def test_repeated_batches_preserve_args(self, sim):
        seen = []
        for round_no in range(3):
            base = sim.now
            sim.schedule_batch(
                lambda r, k: seen.append((r, k)),
                [base + 0.1 * (k + 1) for k in range(5)],
                [(round_no, k) for k in range(5)],
            )
            sim.run_until(base + 1.0)
        assert seen == [(r, k) for r in range(3) for k in range(5)]


class TestBatchCompactionInteraction:
    """Compaction must keep fire-and-forget entries while dropping
    cancelled ScheduledEvent tombstones around them."""

    def test_compaction_preserves_batch_entries(self, sim):
        fired = []
        sim.schedule_batch(fired.append, [100.0 + i for i in range(10)],
                           [(i,) for i in range(10)])
        doomed = [sim.schedule_at(150.0 + i, fired.append, -i) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert sim.compactions >= 1
        # Every batch item survived the rebuild (tombstones cancelled
        # *after* the last compaction may still occupy slots).
        assert sim.pending_count - sim.cancelled_pending == 10
        assert sim.pending_count < 210
        sim.run_until(300.0)
        assert fired == list(range(10))

    def test_trigger_counts_queued_items_not_heap_slots(self, sim):
        # One 1 000-item batch is one heap slot but 1 000 queued events:
        # 600 tombstones are not half of the 1 600 queued.
        sim.schedule_batch(lambda k: None, [100.0] * 1_000, [(k,) for k in range(1_000)])
        for i in range(600):
            sim.schedule_at(200.0 + i, lambda: None).cancel()
        assert sim.compactions == 0
        assert sim.pending_count == 1_600
        # Past half of the queued events (2 100 of them), it compacts.
        doomed = [sim.schedule_at(300.0 + i, lambda: None) for i in range(500)]
        for handle in doomed[:450]:
            handle.cancel()
        assert sim.compactions == 0
        doomed[450].cancel()
        assert sim.compactions == 1
        assert sim.cancelled_pending == 0
        assert sim.pending_count == 1_000 + 49


class TestRunCleanState:
    def test_max_events_stopping_inside_a_batch(self, sim):
        fired = []
        sim.schedule_batch(fired.append, [1.0 + 0.5 * (k // 3) for k in range(20)],
                           [(k,) for k in range(20)])
        sim.schedule_at(2.25, fired.append, "plain")
        done = 0
        while True:
            try:
                sim.run(max_events=7)
                break
            except RuntimeError:
                done += 7
                assert sim.running is False
                assert len(fired) == done
                assert sim.pending_count == 21 - done
                assert sim.now == sim.last_event_time
        assert fired == list(range(9)) + ["plain"] + list(range(9, 20))
        assert sim.pending_count == 0
        assert sim._heap == []

    def test_max_events_leaves_clean_resumable_state(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 500:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        with pytest.raises(RuntimeError, match="max_events=100"):
            sim.run(max_events=100)
        # Clean state: not running, clock at the last executed event, the
        # remaining queue intact -- and the run is resumable.
        assert sim.running is False
        assert sim.now == 100.0
        assert sim.pending_count == 1
        sim.run()
        assert len(ticks) == 500
        assert sim.running is False

    def test_run_until_not_marked_running_after_return(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.running is False

    def test_running_is_true_inside_callback(self, sim):
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.running))
        sim.run_until(2.0)
        assert observed == [True]


class TestGcPolicy:
    """The run loop freezes + suspends the collector and always undoes it."""

    def test_results_identical_with_and_without_the_policy(self):
        logs = []
        for caller_disabled in (False, True):
            sim = Simulator()
            log: list = []
            _mixed_workload(sim, log)
            if caller_disabled:
                gc.disable()  # the loop then leaves the collector alone
            try:
                sim.run_until(5.0)
                assert gc.isenabled() is not caller_disabled
            finally:
                gc.enable()
            logs.append(log)
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("drive", ["run_until", "run", "step"])
    def test_suspended_inside_and_released_after(self, drive):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        sim = Simulator()
        inside = []
        sim.schedule(1.0, lambda: inside.append((gc.isenabled(), gc.get_freeze_count() > 0)))
        _drive(sim, drive)
        assert inside == [(False, True)]
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_released_after_max_events_error(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=10)
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_released_after_callback_error(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run_until(2.0)
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0
        assert sim.running is False

    def test_nested_run_does_not_reenable_early(self):
        sim = Simulator()
        states = []

        def outer():
            sim.schedule(0.0, states.append, "inner")
            sim.run_until(sim.now)  # a nested loop, inside the outer one
            states.append((gc.isenabled(), gc.get_freeze_count() > 0, sim.running))

        sim.schedule(1.0, outer)
        sim.schedule(2.0, lambda: states.append(gc.isenabled()))
        sim.run_until(3.0)
        assert states == ["inner", (False, True, True), False]
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("drive", ["run_until", "run", "step"])
    def test_maintenance_collection_runs_on_every_entry_point(self, drive, monkeypatch):
        # Regression: run() and step() used to bypass the loop that held
        # the maintenance collection, so a long run() with automatic GC
        # suspended accumulated cyclic garbage without bound.
        monkeypatch.setattr(Simulator, "GC_MAINTENANCE_EVENTS", 10)
        collected = []
        monkeypatch.setattr(gc, "collect", lambda *args: collected.append(args) or 0)
        sim = Simulator()
        for i in range(35):
            sim.schedule(float(i + 1), lambda: None)
        _drive(sim, drive)
        assert collected == [(1,), (1,), (1,)]
