"""Unit tests for resettable timers and periodic tasks."""

from random import Random

import pytest

from repro.sim.timers import PeriodicTask, Timer
from tests.helpers import python_calls_by_function


class TestTimer:
    def test_fires_after_interval(self, sim):
        fired = []
        timer = Timer(sim, 5.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(10.0)
        assert fired == [5.0]

    def test_does_not_fire_before_start(self, sim):
        fired = []
        Timer(sim, 1.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == []

    def test_reset_postpones_expiry(self, sim):
        fired = []
        timer = Timer(sim, 5.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(3.0)
        timer.reset()
        sim.run_until(20.0)
        assert fired == [8.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, 5.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(3.0)
        timer.cancel()
        sim.run_until(20.0)
        assert fired == []
        assert not timer.armed

    def test_restart_after_expiry(self, sim):
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run_until(5.0)
        timer.start()
        sim.run_until(10.0)
        assert fired == [2.0, 7.0]

    def test_armed_property(self, sim):
        timer = Timer(sim, 2.0, lambda: None)
        assert not timer.armed
        timer.start()
        assert timer.armed
        sim.run_until(3.0)
        assert not timer.armed

    def test_non_positive_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            Timer(sim, 0.0, lambda: None)


class TestPeriodicTask:
    def test_fires_every_period(self, sim):
        ticks = []
        task = PeriodicTask(sim, 2.0, ticks.append)
        task.start()
        sim.run_until(9.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0]

    def test_custom_start_delay(self, sim):
        ticks = []
        task = PeriodicTask(sim, 2.0, ticks.append)
        task.start(start_delay=0.5)
        sim.run_until(5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_stop_halts_future_ticks(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, ticks.append)
        task.start()
        sim.run_until(3.0)
        task.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_is_idempotent_while_running(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, ticks.append)
        task.start()
        task.start()
        sim.run_until(2.0)
        assert ticks == [1.0, 2.0]

    def test_restart_after_stop(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, ticks.append)
        task.start()
        sim.run_until(1.0)
        task.stop()
        sim.run_until(5.0)
        task.start()
        sim.run_until(6.5)
        assert ticks == [1.0, 6.0]

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda t: None, jitter=0.1)

    def test_jitter_varies_period_within_bounds(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, ticks.append, jitter=0.3, rng=Random(7))
        task.start()
        sim.run_until(50.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.7 <= g <= 1.3 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1  # actually varies

    def test_jittered_delay_is_random_uniform_on_the_same_draws(self, sim):
        """The run loop computes a periodic handle's next delay itself; it
        must stay, bit for bit, ``period + rng.uniform(-jitter, jitter)`` on
        a twin stream."""
        period, jitter = 1.0 / 3.0, 0.2 / 3.0  # an RGame player's
        ticks = []
        sim.schedule_every(0.0, period, ticks.append, jitter=jitter, rng=Random(11))
        sim.run_until(400.0)
        assert len(ticks) > 1000
        twin = Random(11)
        expected = 0.0
        for tick in ticks:
            assert tick == expected
            expected = tick + (period + twin.uniform(-jitter, jitter))

    def test_invalid_jitter_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda t: None, jitter=1.0, rng=Random(0))

    def test_non_positive_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda t: None)

    def test_callback_receives_current_time(self, sim):
        seen = []
        task = PeriodicTask(sim, 1.5, lambda now: seen.append(now == sim.now))
        task.start()
        sim.run_until(6.0)
        assert seen and all(seen)

    def test_a_failed_start_leaves_the_task_stopped(self, sim):
        task = PeriodicTask(sim, 1.0, lambda now: None)
        with pytest.raises(ValueError):
            task.start(start_delay=-1.0)
        assert not task.running
        assert sim.pending_count == 0

    def test_a_jittered_tick_runs_no_sim_frame_besides_its_callback(self, sim):
        """The kernel re-queues the task's handle in the run loop: nothing in
        ``repro/sim/`` runs per tick but the loop itself (one frame per
        ``run_until``)."""
        ticks = []
        task = PeriodicTask(sim, 0.25, ticks.append, jitter=0.05, rng=Random(3))
        task.start()
        calls = python_calls_by_function(lambda: sim.run_until(100.0))
        assert len(ticks) > 350
        in_sim = {
            f"{path.rsplit('/', 1)[-1]}:{name}": n
            for (path, _line, name), n in calls.items()
            if "/repro/sim/" in path and name not in ("run_until", "_run_loop")
        }
        assert in_sim == {}, f"per-tick frames in repro/sim/: {in_sim}"
        assert sum(n for (_p, _l, name), n in calls.items() if name == "_run_loop") == 1


class TestScheduleEvery:
    def test_fires_at_delay_then_every_period(self, sim):
        ticks = []
        sim.schedule_every(0.5, 2.0, ticks.append)
        sim.run_until(7.0)
        assert ticks == [0.5, 2.5, 4.5, 6.5]

    def test_one_handle_stays_queued(self, sim):
        handle = sim.schedule_every(1.0, 1.0, lambda now: None)
        for _ in range(5):
            assert sim.step() is True
            assert sim.pending_count == 1 and sim._heap[0][2] is handle
        assert not handle.cancelled and handle.time == 6.0

    def test_cancel_from_its_own_callback(self, sim):
        ticks = []

        def tick(now):
            ticks.append(now)
            if len(ticks) == 3:
                handle.cancel()

        handle = sim.schedule_every(1.0, 1.0, tick)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.pending_count == 0

    def test_rearms_before_the_callback_runs(self, sim):
        """The next tick is queued (and its seq taken) before ``fn`` runs,
        so an event ``fn`` schedules for the next tick's instant runs after it."""
        order = []

        def tick(now):
            order.append(("tick", now))
            if now == 1.0:
                sim.schedule(1.0, lambda: order.append(("oneshot", sim.now)))

        sim.schedule_every(1.0, 1.0, tick)
        sim.run_until(2.0)
        assert order == [("tick", 1.0), ("tick", 2.0), ("oneshot", 2.0)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay": -1.0, "period": 1.0},
            {"delay": 0.0, "period": 0.0},
            {"delay": 0.0, "period": 1.0, "jitter": 1.0, "rng": Random(0)},
            {"delay": 0.0, "period": 1.0, "jitter": -0.1, "rng": Random(0)},
            {"delay": 0.0, "period": 1.0, "jitter": 0.1},
        ],
    )
    def test_invalid_arguments_rejected(self, sim, kwargs):
        with pytest.raises(ValueError):
            sim.schedule_every(fn=lambda now: None, **kwargs)
        assert sim.pending_count == 0
