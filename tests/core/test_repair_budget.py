"""What gap repair may send, as exact counts.

The perf ledger's ``reliable_lossy`` workload prices the repair traffic,
and ``ledger-compare`` only says "not worse than the base commit".  This
holds the shape of it in tier-1, on a run of that workload's shape at the
ledger's tiny size: exactly_once + causal order, 4 channels x 5
subscribers x 2 publishers at 5 msg/s, every 4th subscriber's links
losing a fifth of their messages for the middle third of 9 s.

Selective repeat resends a publication about once per hole (a lost
request or replay costs one more: 36 replayed for 29 holes here) and
almost nothing the client already holds.  A request that names the
*range* around its holes resends what lies between them: on this run the
range form replayed 114 for 30 holes, 68 of them dropped on arrival as
duplicates.  Counts are exact and the same on any machine; there is no
wall clock here.

The same run also prices the reliable path itself: Python-level calls in
``repro/core/reliability.py``, the link clock gap repair times its requests
with (``repro/core/client_link.py``), ``repro/broker/`` and ``repro/faults/`` per
application delivery, counted the way the ledger's counting pass counts.
A change that needs more frames there raises ``BUDGET`` in the same diff,
on purpose.
"""

from random import Random

from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.faults import ChaosSchedule, DegradeLink, FaultInjector
from repro.sim.timers import PeriodicTask
from tests.helpers import python_calls_by_function

CHANNELS, SUBS, PUBS, RATE, DURATION_S, LOSS, DRAIN_S = 4, 5, 2, 5.0, 9.0, 0.2, 3.0

#: reliable-path calls per application delivery.  The floor is 1.4: seven
#: frames per publication (broker arrival and completion, two stamps, the
#: cache's ``cache_for`` / ``stamp_and_cache`` / ``add``) shared by its five
#: subscribers.  A delivery that is next in its stream and causally ready
#: costs nothing here: ``DynamothClient.receive`` settles it without calling
#: ``SequenceStage.observe`` or ``CausalGate.admit``, which see only first
#: contact, holes, fills, duplicates and parks.  The rest is those exceptions
#: and gap repair; this run reads 2.27 (4.17 when every delivery paid for
#: ``observe`` and ``admit``).
BUDGET = 2.5
_RELIABLE_PATH = (
    "/repro/core/reliability.py", "/repro/core/client_link.py", "/repro/broker/", "/repro/faults/",
)


def _lossy_run(seed: int = 0):
    cluster = DynamothCluster(
        seed=seed,
        config=DynamothConfig(max_servers=2, delivery_tier="exactly_once", causal_order=True),
        initial_servers=2,
        balancer=BALANCER_NONE,
    )
    rng = Random(seed)
    period = 1.0 / RATE
    subscribers, publishers, tasks = [], [], []
    originals = []

    def count_originals(channel, delivery):
        if not delivery.replayed:
            originals.append(delivery.seq)

    for c in range(CHANNELS):
        channel = f"tile:{c}"
        for s in range(SUBS):
            sub = cluster.create_client(f"sub-{c}-{s}")
            sub.subscribe(channel, lambda ch, body, envelope: None)
            sub.on_wire_delivery = count_originals
            subscribers.append(sub)
        for p in range(PUBS):
            pub = cluster.create_client(f"pub-{c}-{p}")
            publishers.append(pub)
            task = PeriodicTask(
                cluster.sim, period, lambda now, pub=pub, ch=channel: pub.publish(ch, None, 200)
            )
            tasks.append((task, rng.random() * period))
    lossy_from, lossy_until = 1.0 + DURATION_S / 3.0, 1.0 + 2.0 * DURATION_S / 3.0
    FaultInjector(
        cluster,
        ChaosSchedule(
            tuple(
                DegradeLink(lossy_from, sub.node_id, server_id, loss=LOSS, until=lossy_until)
                for sub in subscribers[::4]
                for server_id in sorted(cluster.servers)
            )
        ),
    ).arm()
    cluster.run_until(1.0)
    for task, phase in tasks:
        task.start(start_delay=phase)
    cluster.run_until(1.0 + DURATION_S)
    for task, _ in tasks:
        task.stop()
    cluster.run_for(DRAIN_S)
    owed = sum(pub.published for pub in publishers) * SUBS
    return cluster, subscribers, owed, owed - len(originals)


def test_repair_traffic_is_about_one_replay_per_hole():
    cluster, subscribers, owed, holes = _lossy_run()
    brokers = [server.reliability for server in cluster.servers.values()]
    replayed = sum(rel.replayed_messages for rel in brokers)
    duplicates = sum(sub.duplicates for sub in subscribers)
    # Every hole was filled: each subscriber got each publication once.
    assert sum(sub.delivered for sub in subscribers) == owed
    assert all(not s.missing for sub in subscribers for s in sub._sequence.streams.values())
    assert sum(rel.unrecoverable_gaps for rel in brokers) == 0
    # The lossy window did open holes, and they were repaired by number.
    assert holes >= 20
    assert holes <= replayed <= 1.5 * holes, (holes, replayed)
    assert duplicates <= 0.05 * replayed, (duplicates, replayed)


def test_reliable_path_calls_per_delivery_within_budget():
    runs = []
    calls = python_calls_by_function(lambda: runs.append(_lossy_run()))
    (_cluster, subscribers, owed, _holes), = runs
    delivered = sum(sub.delivered for sub in subscribers)
    assert delivered == owed
    path = {key: n for key, n in calls.items() if any(part in key[0] for part in _RELIABLE_PATH)}
    per_delivery = sum(path.values()) / delivered
    top = sorted(path.items(), key=lambda item: -item[1])[:10]
    assert per_delivery <= BUDGET, (
        f"{per_delivery:.2f} reliable-path calls per delivery (budget {BUDGET}); top callees:\n"
        + "\n".join(
            f"  {n:>7}  {file.rsplit('/repro/', 1)[1]}:{line} {name}"
            for (file, line, name), n in top
        )
    )
