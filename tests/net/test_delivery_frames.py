"""The untraced path's two budgets, held structurally.

A delivery costs two Python frames: ``DynamothClient.receive`` and the
application's callback.  The kernel's run loop calls ``receive`` through a
C callable with no transport frame in between, and reading the clock is an
attribute load.  The perf ledger measures this on 10 000 subscribers; the
first test holds it on 200, so a frame that creeps back fails tier-1.  (Wide
enough that the 5 calls a *publication* costs stay under a tenth of a call
per delivery; a per-delivery frame adds a whole one.)

A publication costs two kernel events, one stage function each: publish
to the wire (``publish``, ``Transport.send``: 2) and the command's arrival
at the broker, which charges the CPU and fans out in ``receive``'s own
frame, the departures starting when the CPU finishes (``receive``,
``send_fanout``, the dispatcher's ``_on_publication``: 3).  ``publish``
predicts its route where ``_resolve`` would decide nothing and calls the
transport itself; the transport draws the propagation delay, advances the
NIC clock and pushes the delivery's cursor onto the kernel's heap in its
send frames, so nothing in ``net/link.py`` or ``net/latency.py`` runs and
no kernel frame sits between a sender and the queue.  On small
channels -- RGame's tiles hold ~5 subscribers -- that fixed chain, not
the delivery, is what a run costs; the second test holds it on one
subscriber.
"""

from repro.broker.config import BrokerConfig
from tests.conftest import make_static_cluster
from tests.helpers import python_calls_by_file

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

    calls = python_calls_by_file(lambda: cluster.run_for(0.1 * PUBLICATIONS + 1.0))

    deliveries = SUBSCRIBERS * PUBLICATIONS
    assert len(latencies) == deliveries
    total = sum(calls.values())
    below_receive = sum(
        n for path, n in calls.items() if "/repro/sim/" in path or "/repro/net/" in path
    )
    # Nothing in the kernel or the network layer runs per delivery ...
    assert below_receive / deliveries < 0.1, below_receive
    # ... and above them only ``receive`` and the callback do.
    assert total / deliveries < 2.2, total


def test_a_publication_costs_at_most_eight_frames():
    cluster = make_static_cluster(
        initial_servers=1, broker_config=BrokerConfig(per_connection_bps=None)
    )
    sim = cluster.sim
    received = []
    cluster.create_client("sub").subscribe("tile", lambda ch, body, env: received.append(body))
    publisher = cluster.create_client("pub")
    cluster.run_for(1.0)
    publications = 50
    for i in range(publications):
        sim.schedule(0.1 * i, publisher.publish, "tile", i, 100)

    events_before = sim.events_processed
    calls = python_calls_by_file(lambda: cluster.run_for(0.1 * publications + 1.0))

    assert received == list(range(publications))
    # The scheduled publish, the command's arrival at the broker and the
    # delivery: the static cluster runs no timers, so nothing else fires.
    assert sim.events_processed - events_before == 3 * publications
    assert not [path for path in calls if path.endswith("/repro/net/link.py")]
    assert not [path for path in calls if path.endswith("/repro/sim/actor.py")]
    assert not [path for path in calls if path.endswith("/repro/net/latency.py")]
    total = sum(calls.values())
    # 2 + 3 for the publication and 2 for its one delivery; the rest of the
    # allowance is the run's own frames (``run_for``, the first fan-out
    # entry being built).  Reads 7.2.
    assert total / publications <= 8, total
