"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock (a float, in seconds) and a queue
of pending events.  Components schedule callbacks at future points in time;
:meth:`Simulator.run_until` pops events in timestamp order and invokes
them.  Ties are broken by insertion order, which makes runs fully
deterministic for a fixed seed.

The queue is a binary heap of tuple entries (see ``_Entry``), so every
comparison stays inside C.  Callers that never need a cancel handle (the
transport) enqueue *fire-and-forget* batches through
:meth:`Simulator.schedule_batch`: no ``ScheduledEvent`` is allocated per
message, a whole batch waits in the heap as one cursor entry, and the run
loop skips all handle bookkeeping for it.
"""

from __future__ import annotations

import gc
import heapq
from itertools import islice
from operator import le
from typing import Any, Callable, List, Optional, Sequence, Tuple

_NEVER = float("inf")

#: Queue entry.  Two shapes share the queue:
#:
#: * ``(time, seq, event)`` -- a cancellable :class:`ScheduledEvent` handle
#:   created by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`.
#: * ``(time, seq, None, fn, args_seq, times, j)`` -- a *batch cursor*
#:   created by :meth:`Simulator.schedule_batch`: it stands for the batch's
#:   item ``j`` (``fn(*args_seq[j])`` at ``times[j]``) and every item after
#:   it.  No handle object exists at all.
#:
#: The ``(time, seq)`` prefix is unique, so tuple comparison never falls
#: through to the third element and the two shapes order consistently.
_Entry = Tuple[Any, ...]


class ScheduledEvent:
    """Handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; calling :meth:`cancel` prevents
    the callback from firing (cancellation is O(1) -- the event stays in the
    queue but is skipped when popped).

    :meth:`Simulator.schedule_batch` never creates these at all: a batch
    is enqueued as one fire-and-forget cursor tuple with no handle.
    """

    # No ``__init__``: :meth:`Simulator.schedule` / ``schedule_at``, the only
    # makers, fill the six slots in their own frame.
    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    time: float
    seq: int
    fn: Optional[Callable[..., None]]
    args: Tuple[Any, ...]
    cancelled: bool
    #: back-reference to the owning simulator while the event is in its
    #: queue, so cancellations can be counted for compaction.
    _sim: Optional["Simulator"]

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events do not pin large objects in
        # memory while they wait to be popped from the queue.
        self.fn = None
        self.args = ()
        sim = self._sim
        self._sim = None
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second in"))
        sim.run_until(10.0)

    The clock unit is seconds.  Events scheduled for the same instant fire in
    the order they were scheduled.
    """

    #: Compaction floor: queues smaller than this are never compacted (the
    #: rebuild would cost more than the memory it frees).
    COMPACT_MIN_CANCELLED = 64

    #: Executed events between the run loop's explicit young-generation
    #: collections (see :meth:`_run_loop` for the GC policy).
    GC_MAINTENANCE_EVENTS = 1_000_000

    def __init__(self) -> None:
        #: Current virtual time in seconds: a plain attribute, so a read
        #: costs no frame.  Only the run loop and :meth:`run_until` write it.
        self.now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled_pending: int = 0
        self._compactions: int = 0
        self._running = False
        self._heap: List[_Entry] = []
        #: Queued batch items beyond the one each cursor in the heap stands
        #: for: :attr:`pending_count` is ``len(self._heap)`` plus this.
        self._batched: int = 0
        self._gc_next: int = self.GC_MAINTENANCE_EVENTS
        self._last_event_time: float = 0.0
        #: Optional sim-profiler (``repro.obs.profile.SimProfiler``-shaped:
        #: anything with ``record_event(fn, now, args)``).  Fed the executed
        #: callback after each event.  Hoisted into a local at run entry
        #: (``None`` then costs nothing per event), so it must be installed
        #: *before* entering a run loop, never from inside an executing
        #: event; it must not schedule events or touch any RNG (counts and
        #: virtual time only, no wall clock) so instrumented runs stay
        #: deterministic.
        self.profiler: Optional[Any] = None
        #: Low-frequency sampling hook installed via :meth:`set_sample_hook`:
        #: it fires only every ``sample_every`` executed events, so
        #: per-event cost is one integer compare.
        self.sample_hook: Optional[Callable[[float, int], None]] = None
        self.sample_every: int = 0
        self._sample_next: float = _NEVER

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (diagnostic)."""
        return self._events_processed

    @property
    def last_event_time(self) -> float:
        """Timestamp of the last event executed by a finished run loop.

        Unlike :attr:`now` it does not jump to the :meth:`run_until`
        horizon; 0.0 until a run loop that executed something has exited.
        """
        return self._last_event_time

    @property
    def pending_count(self) -> int:
        """Number of events still queued, including cancelled ones.

        Every undelivered item of a batch counts, not the one heap entry
        its cursor occupies.
        """
        return len(self._heap) + self._batched

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots (diagnostic)."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of queue compactions performed so far (diagnostic)."""
        return self._compactions

    @property
    def running(self) -> bool:
        """True while :meth:`run` / :meth:`run_until` is executing events."""
        return self._running

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent()
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent()
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_batch(
        self,
        fn: Callable[..., None],
        times: Sequence[float],
        args_seq: Sequence[Tuple[Any, ...]],
    ) -> int:
        """Bulk-schedule ``fn(*args)`` at many absolute times.

        ``times`` and ``args_seq`` are parallel sequences of equal length
        (kept separate so bulk callers need not build a pair tuple per
        event).  The batch waits in the queue as *one* fire-and-forget
        cursor entry, ``(time, seq, None, fn, args_seq, times, j)``, that
        the run loop moves along the batch item by item: no
        :class:`ScheduledEvent` is allocated, no handle is returned, and
        batch events cannot be cancelled by callers -- in exchange the run
        loop pays zero handle bookkeeping for them, and a queued item costs
        the kernel nothing beyond its slots in the caller's two sequences.
        Returns the number of events scheduled.

        The kernel keeps ``times`` and ``args_seq`` (unless it had to sort
        them) until the batch's last item has run, so a caller must hand
        over fresh sequences and never mutate them afterwards.

        The batch owns the sequence numbers ``[first, first + n)``.  If
        ``times`` is not non-decreasing the items are stable-sorted by time
        first, and take those numbers in sorted order.  No other event's
        number falls inside the range, so it orders against every item
        exactly as it would against that item scheduled alone, and ties
        inside the batch keep their index order: the global ``(time, seq)``
        order is the one ``n`` separate entries would have had.

        The batch is atomic: a timestamp in the past raises before anything
        is queued, so a rejected batch consumes no sequence numbers.
        """
        n = len(times)
        if len(args_seq) != n:
            raise ValueError(f"batch has {n} times but {len(args_seq)} argument tuples")
        if not n:
            return 0
        # C-level calls only: before Python 3.12 a comprehension here would
        # run in a frame of its own, once per batch.
        if n > 1 and not all(map(le, times, islice(times, 1, None))):
            order = sorted(range(n), key=times.__getitem__)
            times = list(map(times.__getitem__, order))
            args_seq = list(map(args_seq.__getitem__, order))
        if times[0] < self.now:
            raise ValueError(f"cannot schedule in the past: {times[0]} < {self.now}")
        seq = self._seq
        self._seq = seq + n
        self._batched += n - 1
        heapq.heappush(self._heap, (times[0], seq, None, fn, args_seq, times, 0))
        return n

    # ------------------------------------------------------------------
    # Queue compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`ScheduledEvent.cancel` while the event is queued.

        Long chaos runs cancel timers constantly (heartbeats, retry
        backoffs); without compaction those tombstones accumulate until
        they are popped, which for far-future deadlines can take the whole
        run.  Once cancelled events outnumber live ones (and the queue is
        big enough to matter), rebuild the queue without them.  Live events
        are counted as :attr:`pending_count` counts them, every queued batch
        item included, not by the heap slots their cursors occupy.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(self._heap) + self._batched
        ):
            self._compact()

    def _compact(self) -> None:
        live_entries = []
        for entry in self._heap:
            event = entry[2]
            # Batch cursors (event is None) cannot be cancelled; only
            # ScheduledEvent tombstones are dropped.
            if event is None or not event.cancelled:
                live_entries.append(entry)
        self._heap = live_entries
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def set_sample_hook(
        self, fn: Optional[Callable[[float, int], None]], every: int = 100_000
    ) -> None:
        """Install (or clear, with ``fn=None``) the periodic sampling hook.

        ``fn(now, events_processed)`` fires after every ``every`` executed
        events -- the perf ledger's probe (``benchmarks/ledger/``) samples
        through it.  The hook must follow the :attr:`profiler` determinism
        contract.
        """
        if fn is None:
            self.sample_hook = None
            self.sample_every = 0
            self._sample_next = _NEVER
            return
        if every < 1:
            raise ValueError(f"sample_every must be >= 1: {every!r}")
        self.sample_hook = fn
        self.sample_every = every
        self._sample_next = self._events_processed + every

    def _run_loop(self, limit: float, budget: Optional[int] = None) -> bool:
        """Execute due events in ``(time, seq)`` order: the one run loop.

        Runs every event with timestamp <= ``limit``, stopping early once
        ``budget`` events have executed (``None``: unbounded).  Returns
        ``True`` when the budget stopped it, ``False`` when it ran out of
        due events.

        GC policy.  CPython's automatic full-heap collections re-scan the
        whole static topology (actors, clients, connections) every ~70k
        allocations, which dominates large fan-out runs.  So the outermost
        loop freezes everything alive at entry -- long-lived by
        construction -- into the permanent generation and suspends
        automatic collection while events execute; a young-generation
        collection every :data:`GC_MAINTENANCE_EVENTS` events keeps cyclic
        garbage bounded.  On the way out, normally or by exception,
        collection is re-enabled and the freeze undone, so nothing stays
        pinned past the run.  A nested loop, or a caller that disabled
        collection itself, finds it disabled and leaves it alone.  The
        policy never affects simulation results, only wall-clock time.
        """
        owns_gc = gc.isenabled()
        if owns_gc:
            gc.freeze()
            gc.disable()
        gc_next = self._gc_next if owns_gc else _NEVER
        started_at = self._events_processed
        stop_at = _NEVER if budget is None else started_at + budget
        was_running = self._running
        self._running = True
        try:
            # The profiler is hoisted into a local once per run entry: None
            # costs nothing per event instead of an attribute load + test.
            # It must therefore be installed before the run loop starts
            # (Tracer.attach_kernel does), never from inside an executing
            # event.
            profiler = self.profiler
            # Combined threshold: one compare per event covers the sampling
            # hook, GC maintenance and the event budget.
            pause_next = min(self._sample_next, gc_next, stop_at)
            heap = self._heap
            pop = heapq.heappop
            replace = heapq.heapreplace
            while heap:
                entry = heap[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    pop(heap)
                    self._cancelled_pending -= 1
                    continue
                if entry[0] > limit:
                    break
                self.now = entry[0]
                if event is None:
                    # Batch cursor: no handle state to release, cannot be
                    # cancelled.  It moves to the batch's next item (the
                    # next seq of the batch's range) or leaves the queue
                    # *before* the item runs, so the queue is exact at
                    # every stop and inside the callback.
                    fn = entry[3]
                    args_seq = entry[4]
                    j = entry[6]
                    args = args_seq[j]
                    j += 1
                    times = entry[5]
                    if j < len(times):
                        replace(heap, (times[j], entry[1] + 1, None, fn, args_seq, times, j))
                        self._batched -= 1
                    else:
                        pop(heap)
                else:
                    pop(heap)
                    # Handle state is released *before* running, so an
                    # event rescheduling itself does not grow memory.
                    fn = event.fn
                    args = event.args
                    # Already out of the queue: the self-cancel marker
                    # must not count toward the compaction trigger.
                    event._sim = None
                    event.cancelled = True
                    event.fn = None
                    event.args = ()
                self._events_processed += 1
                fn(*args)
                if profiler is not None:
                    profiler.record_event(fn, self.now, args)
                if heap is not self._heap:
                    heap = self._heap  # compaction rebuilt it
                if self._events_processed >= pause_next:
                    if self._events_processed >= self._sample_next:
                        self._sample_next = self._events_processed + self.sample_every
                        sample = self.sample_hook
                        if sample is not None:
                            sample(self.now, self._events_processed)
                    if self._events_processed >= gc_next:
                        gc.collect(1)
                        gc_next = self._gc_next = (
                            self._events_processed + self.GC_MAINTENANCE_EVENTS
                        )
                    if self._events_processed >= stop_at:
                        return True
                    pause_next = min(self._sample_next, gc_next, stop_at)
            return False
        finally:
            self._running = was_running
            if self._events_processed != started_at:
                # One store per loop exit, not per event: run_until is about
                # to move ``now`` to its horizon.
                self._last_event_time = self.now
            if owns_gc:
                gc.enable()
                gc.unfreeze()

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        Cancelled events are discarded silently.
        """
        return self._run_loop(_NEVER, 1)

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= ``time``; advance clock to ``time``.

        The clock always ends exactly at ``time`` even if the queue drains
        early, so periodic processes can be resumed from a known instant.
        """
        if time < self.now:
            raise ValueError(f"cannot run backwards: {time} < {self.now}")
        self._run_loop(time)
        self.now = time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue is exhausted.

        ``max_events`` bounds the number of events executed -- a safety net
        against accidental infinite self-rescheduling loops.  When the bound
        trips, a ``RuntimeError`` is raised with the simulator left in a
        clean, resumable state: :attr:`running` is ``False``, the clock
        stays at the last executed event, and the remaining queue is intact.
        """
        if self._run_loop(_NEVER, max_events):
            raise RuntimeError(
                f"simulation exceeded max_events={max_events}; "
                "likely a runaway periodic process"
            )
