"""The untraced delivery path's floor, held structurally.

A delivery costs two Python frames: ``DynamothClient.receive`` and the
application's callback.  The kernel's run loop calls ``receive`` through a
C callable with no transport frame in between, and reading the clock is an
attribute load.  The perf ledger measures this on 10 000 subscribers; this
test holds it on 200, so a frame that creeps back fails tier-1.  (Wide
enough that the ~20 calls a *publication* costs -- publish, the broker's
two steps, one send, one fan-out -- stay under a tenth of a call per
delivery; a per-delivery frame adds a whole one.)
"""

import cProfile
import os

from repro.broker.config import BrokerConfig
from tests.conftest import make_static_cluster

SUBSCRIBERS = 200
PUBLICATIONS = 10


def test_a_delivery_costs_two_python_frames():
    cluster = make_static_cluster(
        initial_servers=1, broker_config=BrokerConfig(per_connection_bps=None)
    )
    sim = cluster.sim
    latencies = []

    def on_delivery(channel, body, envelope):
        latencies.append(sim.now - envelope.sent_at)  # reads the clock, as apps do

    for i in range(SUBSCRIBERS):
        cluster.create_client(f"sub{i}").subscribe("hot", on_delivery)
    publisher = cluster.create_client("pub")
    cluster.run_for(1.0)
    for i in range(PUBLICATIONS):
        sim.schedule(0.1 * i, publisher.publish, "hot", i, 100)

    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    cluster.run_for(0.1 * PUBLICATIONS + 1.0)
    profiler.disable()
    profiler.create_stats()

    deliveries = SUBSCRIBERS * PUBLICATIONS
    assert len(latencies) == deliveries
    total = below_receive = 0
    for (filename, _line, _name), (_cc, ncalls, *_rest) in profiler.stats.items():
        total += ncalls
        path = filename.replace(os.sep, "/")
        if "/repro/sim/" in path or "/repro/net/" in path:
            below_receive += ncalls
    # Nothing in the kernel or the network layer runs per delivery ...
    assert below_receive / deliveries < 0.1, below_receive
    # ... and above them only ``receive`` and the callback do.
    assert total / deliveries < 2.2, total
