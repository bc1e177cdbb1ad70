"""What the kernel holds, per queued item, while deliveries wait.

A fan-out is queued as one batch: ``Simulator.schedule_batch`` keeps the
caller's ``times`` / ``args_seq`` sequences and puts one cursor entry in
the heap for the whole batch.  A queued item therefore costs the kernel
its share of one cursor tuple and one sequence number -- plus, for a
batch handed over out of time order, its slots in the two sorted copies.
An overloaded broker's egress backlog (hundreds of thousands of queued
deliveries) is held at that rate.

The budget is the tracemalloc bytes that ``repro/sim/kernel.py`` holds
once 2 500 batches of 8 are queued, every tenth one unsorted.  It reads
about 20 B per item with one cursor per batch; one heap entry per item
(a 5-tuple plus its sequence number) read about 120 B.
"""

from __future__ import annotations

import tracemalloc

import repro.sim.kernel as kernel_module
from repro.sim.kernel import Simulator

BATCHES = 2_500
BATCH_SIZE = 8
#: bytes of ``repro/sim/kernel.py`` allocations held per queued item
BUDGET_BYTES = 32


def _deliver(tag: int) -> None:
    pass


def _held_by_kernel_module(sim: Simulator) -> tracemalloc.Snapshot:
    batches = []
    for b in range(BATCHES):
        base = 1.0 + b * 1e-3
        times = [base + k * 1e-4 for k in range(BATCH_SIZE)]
        if b % 10 == 0:
            times.reverse()
        batches.append((times, [(k,) for k in range(BATCH_SIZE)]))
    tracemalloc.start()
    try:
        for times, args_seq in batches:
            sim.schedule_batch(_deliver, times, args_seq)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return snapshot.filter_traces([tracemalloc.Filter(True, kernel_module.__file__)])


def test_kernel_bytes_per_queued_item_stay_in_budget():
    sim = Simulator()
    snapshot = _held_by_kernel_module(sim)
    queued = BATCHES * BATCH_SIZE
    assert sim.pending_count == queued
    stats = snapshot.statistics("lineno")
    per_item = sum(stat.size for stat in stats) / queued
    top = "\n".join(str(stat) for stat in stats[:5])
    assert per_item <= BUDGET_BYTES, (
        f"{per_item:.1f} B per queued item held by kernel.py "
        f"(budget {BUDGET_BYTES}); top allocation lines:\n{top}"
    )
    sim.run()
    assert sim.pending_count == 0
