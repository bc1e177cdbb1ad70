"""What a subscriber's client library holds, per subscriber, after a run.

Duplicate suppression keeps one window per distinct sender heard: a
``[high, mask]`` pair whose mask is at most ``DEDUP_WINDOW / 8`` bytes
(1 KiB).  A subscriber's dedup memory is therefore bounded by the
senders it hears, not by the messages it receives: Fig 4b's fan-in
subscriber, hearing 600 publishers, holds 600 windows where a set of
recent message ids would hold up to ``DEDUP_WINDOW`` (8 192) id strings.

The budget is the tracemalloc bytes that ``repro/core/client.py`` still
holds once a 2 000-subscriber channel has carried 60 publications from
one publisher.  It reads 1 134 B per subscriber with the per-sender
windows.  The count-aware LRU of message ids they replaced (a dict plus
a recency deque), beside a private empty frozenset per client, read
about 3 940 B.
"""

from __future__ import annotations

import tracemalloc

import repro.core.client as client_module
from repro.broker.config import BrokerConfig
from repro.core.config import DynamothConfig
from tests.helpers import make_static_cluster

SUBSCRIBERS = 2_000
PUBLICATIONS = 60
#: bytes of ``repro/core/client.py`` allocations held per subscriber
BUDGET_BYTES = 1_500


def _held_by_client_module() -> tracemalloc.Snapshot:
    cluster = make_static_cluster(
        initial_servers=1,
        config=DynamothConfig(max_servers=1, min_servers=1),
        broker_config=BrokerConfig(
            nominal_egress_bps=200_000_000.0,
            per_connection_bps=None,
            output_buffer_limit_bytes=1 << 30,
        ),
    )
    got = []
    for i in range(SUBSCRIBERS):
        cluster.create_client(f"sub{i}").subscribe("hot", lambda ch, body, env: got.append(1))
    publisher = cluster.create_client("pub")
    cluster.run_for(1.0)
    for n in range(PUBLICATIONS):
        publisher.publish("hot", n, 200)
        cluster.run_for(0.1)
    cluster.run_for(1.5)
    assert len(got) == SUBSCRIBERS * PUBLICATIONS
    snapshot = tracemalloc.take_snapshot()
    return snapshot.filter_traces([tracemalloc.Filter(True, client_module.__file__)])


def test_client_library_bytes_per_subscriber_stay_in_budget():
    tracemalloc.start()
    try:
        snapshot = _held_by_client_module()
    finally:
        tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    per_subscriber = sum(stat.size for stat in stats) / SUBSCRIBERS
    top = "\n".join(str(stat) for stat in stats[:5])
    assert per_subscriber <= BUDGET_BYTES, (
        f"{per_subscriber:.0f} B per subscriber held by client.py "
        f"(budget {BUDGET_BYTES}); top allocation lines:\n{top}"
    )
