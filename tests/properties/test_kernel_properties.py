"""Property-based tests for the simulation kernel and egress model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.kernel import Simulator
from tests.helpers import SenderNic


class TestKernelProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_execution_order_is_by_timestamp(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run_until(101.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        cutoff=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_run_until_executes_exactly_due_events(self, delays, cutoff):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run_until(cutoff)
        assert sorted(fired) == sorted(d for d in delays if d <= cutoff)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=2,
            max_size=30,
        ),
        cancel_index=st.integers(min_value=0, max_value=29),
    )
    def test_cancelled_events_never_fire(self, delays, cancel_index):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)
        ]
        victim = cancel_index % len(handles)
        handles[victim].cancel()
        sim.run_until(11.0)
        assert victim not in fired
        assert len(fired) == len(delays) - 1


class TestEgressPortProperties:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=50),
        capacity=st.floats(min_value=10.0, max_value=1e6, allow_nan=False),
    )
    def test_completions_are_monotonic(self, sizes, capacity):
        """FIFO invariant: a later transmission never completes earlier."""
        nic = SenderNic(capacity)
        completions = [nic.send_at(0.0, size) for size in sizes]
        assert completions == sorted(completions)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=50),
        capacity=st.floats(min_value=10.0, max_value=1e6, allow_nan=False),
    )
    def test_total_busy_time_equals_bytes_over_capacity(self, sizes, capacity):
        nic = SenderNic(capacity)
        last = 0.0
        for size in sizes:
            last = nic.send_at(0.0, size)
        assert last * capacity == sum(sizes) or abs(last - sum(sizes) / capacity) < 1e-6

    @given(
        schedule=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.integers(min_value=1, max_value=5_000),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_completion_never_before_submission(self, schedule):
        nic = SenderNic(2000.0)
        for at, size in sorted(schedule):
            assert nic.send_at(at, size) >= at
