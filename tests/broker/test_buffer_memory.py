"""What the broker and the transport hold, per queued delivery, while a
backlog waits behind a saturated NIC.

An overloaded broker (the paper's Experiment 1b and the knee of fig 5)
holds every delivery its NIC has not sent yet: in the subscriber's output
buffer, which the hard limit is checked against, and as an item of the
fan-out batch waiting in the kernel.  Both are packed numbers: a
connection's buffer is two arrays of completion times and wire sizes, and
a batch's delivery times are one array of doubles, so no Python object is
kept per delivery.

The setup queues 2 500 publications to 8 subscribers behind a 1 kB/s NIC
with zero latency.  Two budgets, in tracemalloc bytes held per queued
delivery:

* ``repro/broker/*.py`` plus ``repro/net/link.py``: about 27.5 B (the
  two array slots and the shared ``Delivery`` envelope); a deque of
  ``(completion, size)`` tuples, each keeping its completion float alive,
  read about 99 B.
* ``repro/net/transport.py`` plus ``repro/sim/kernel.py``: about 66.5 B
  (the batch's ``times`` array, its ``args_seq`` list, its one
  ``methodcaller`` and the cursor tuple queued for it).  The transport
  pushes that cursor onto the kernel's heap itself, so the tuple is
  allocated in ``transport.py``; the two files are budgeted together so
  the figure does not depend on which side of that seam allocates it.  A
  list of float delivery times in place of the array read about 67 B in
  ``transport.py`` alone.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
from random import Random

import repro.broker as broker_package
import repro.net.link as link_module
import repro.net.transport as transport_module
import repro.sim.kernel as kernel_module
from repro.broker.commands import PublishCmd, SubscribeCmd
from repro.broker.config import BrokerConfig
from repro.broker.server import PubSubServer
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator

SUBSCRIBERS = 8
PUBLICATIONS = 2_500
SIZE = 100
#: bytes of broker and link allocations held per queued delivery
BROKER_BUDGET_BYTES = 32
#: bytes of transport and kernel allocations held per queued delivery
TRANSPORT_BUDGET_BYTES = 72


class _Idle(Actor):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, is_infra=False)

    def receive(self, message, src_id):
        pass


def _queued_backlog():
    """Queue the backlog under tracemalloc; return the world and the
    snapshot taken once every publication has fanned out."""
    sim = Simulator()
    config = BrokerConfig(
        output_buffer_limit_bytes=10**9,
        per_connection_bps=None,
        per_message_overhead_bytes=0,
        cpu_per_publish_s=0.0,
        cpu_per_delivery_s=0.0,
    )
    net = Transport(sim, Random(0), lan_model=FixedLatency(0.0), wan_model=FixedLatency(0.0))
    server = PubSubServer(sim, "srv", config)
    net.register(server, 1_000.0)
    subscribers = [_Idle(sim, f"sub{i}") for i in range(SUBSCRIBERS)]
    publisher = _Idle(sim, "pub")
    for actor in (*subscribers, publisher):
        net.register(actor)
    for sub in subscribers:
        sub.send("srv", SubscribeCmd("ch"), 64)
    sim.run_until(1.0)
    publications = [PublishCmd("ch", "x", SIZE) for __ in range(PUBLICATIONS)]
    tracemalloc.start()
    try:
        for cmd in publications:
            publisher.send("srv", cmd, SIZE)
        sim.run_until(1.0)
        # A full collection also empties the interpreter's free lists:
        # the one-tuples of every call since setup would otherwise be
        # counted against the lines that first allocated them.
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sim, server, snapshot


def _per_delivery(snapshot, files, queued):
    filtered = snapshot.filter_traces([tracemalloc.Filter(True, f) for f in files])
    stats = filtered.statistics("lineno")
    top = "\n".join(str(stat) for stat in stats[:5])
    return sum(stat.size for stat in stats) / queued, top


def test_queued_delivery_bytes_stay_in_budget():
    sim, server, snapshot = _queued_backlog()
    queued = PUBLICATIONS * SUBSCRIBERS
    assert server.killed_connections == 0
    assert sim.pending_count == queued
    conn = server.connection("sub0")
    assert conn.buffered_bytes(sim.now) == PUBLICATIONS * SIZE

    broker_files = (
        os.path.join(os.path.dirname(broker_package.__file__), "*.py"),
        link_module.__file__,
    )
    per_delivery, top = _per_delivery(snapshot, broker_files, queued)
    assert per_delivery <= BROKER_BUDGET_BYTES, (
        f"{per_delivery:.1f} B per queued delivery held by repro/broker + link.py "
        f"(budget {BROKER_BUDGET_BYTES}); top allocation lines:\n{top}"
    )
    per_delivery, top = _per_delivery(
        snapshot, (transport_module.__file__, kernel_module.__file__), queued
    )
    assert per_delivery <= TRANSPORT_BUDGET_BYTES, (
        f"{per_delivery:.1f} B per queued delivery held by transport.py + kernel.py "
        f"(budget {TRANSPORT_BUDGET_BYTES}); top allocation lines:\n{top}"
    )
