#!/usr/bin/env python
"""Broker failure: crash 1 of 3 pub/sub servers mid-run and watch recovery.

A walkthrough of the ``repro.faults`` subsystem.  Twelve chat rooms are
spread over three servers; every room has one subscriber and a periodic
publisher.  At t=10s the server hosting ``room:0`` hard-crashes -- no
FIN, no goodbye, its LLA simply stops reporting.  The run then shows the
full recovery chain:

1. the balancer's heartbeat monitor suspects, then confirms the failure;
2. plan repair re-homes the dead server's channels onto the survivors;
3. ping-probing clients notice the silence, fail over, and resubscribe
   with exponential backoff.

At the end every subscriber -- including those that were parked on the
dead server -- is receiving publications again, and the script asserts
that not a single subscription was lost.

Run with::

    python examples/broker_failure.py
"""

from repro import DynamothCluster
from repro.core.config import DynamothConfig
from repro.faults import ChaosSchedule, FaultInjector
from repro.sim.timers import PeriodicTask

CRASH_AT = 10.0
ROOMS = 12


def main() -> None:
    config = DynamothConfig(
        max_servers=3,
        t_wait_s=5.0,
        # Chaos runs turn on client-side ping probing: without it a client
        # learns that its server silently died only from a survivor's
        # FailureNotice, once the balancer has confirmed the crash -- and
        # only if it also holds a subscription on a survivor.
        client_ping_interval_s=1.0,
    )
    cluster = DynamothCluster(seed=42, initial_servers=3, config=config)
    print(f"servers: {sorted(cluster.servers)}")

    # One subscriber and one periodic publisher per room.
    deliveries = {}  # room -> [delivery times]
    subscribers = {}
    tasks = []
    for i in range(ROOMS):
        room = f"room:{i}"
        deliveries[room] = []
        sub = cluster.create_client(f"sub{i}")
        sub.subscribe(
            room,
            lambda ch, body, env, r=room: deliveries[r].append(cluster.sim.now),
        )
        subscribers[room] = sub
        pub = cluster.create_client(f"feeder{i}")
        task = PeriodicTask(
            cluster.sim, 0.5, lambda now, p=pub, r=room: p.publish(r, "tick", 100)
        )
        task.start()
        tasks.append(task)

    victim = cluster.plan.ring.lookup("room:0")
    victim_rooms = sorted(
        r for r in deliveries if cluster.plan.ring.lookup(r) == victim
    )
    print(f"victim: {victim} (hosts {', '.join(victim_rooms)})")

    # Arm the chaos schedule: one hard crash, no restart.
    injector = FaultInjector(cluster, ChaosSchedule.single_crash(victim, at=CRASH_AT))
    timeline = injector.arm()
    print(f"armed {len(timeline)} fault action(s); crash at t={CRASH_AT:.0f}s")

    cluster.run_until(40.0)
    for task in tasks:
        task.stop()

    print(f"\ncrashed servers: {sorted(cluster.crashed_servers)}")
    print(f"balancer confirmed failed: {sorted(cluster.balancer.failed_servers)}")
    failovers = sum(c.failovers for c in subscribers.values())
    reconnects = sum(c.reconnects for c in subscribers.values())
    print(f"client failovers: {failovers}, acked resubscribes: {reconnects}")

    lost = 0
    for room in sorted(deliveries):
        sub = subscribers[room]
        after = [t for t in deliveries[room] if t > CRASH_AT + 1.0]
        marker = " <- was on the crashed server" if room in victim_rooms else ""
        status = "recovered" if after and sub.is_subscribed(room) else "LOST"
        if status == "LOST":
            lost += 1
        first = f"first post-crash delivery t={after[0]:6.2f}s" if after else "none"
        print(f"  {room:8s} {status:9s} {first}{marker}")

    assert injector.crashes == 1
    assert victim in cluster.crashed_servers
    assert victim in cluster.balancer.failed_servers
    assert failovers >= len(victim_rooms), "every victim subscriber fails over"
    assert lost == 0, "no subscription may be silently lost"
    print(f"\nsubscriptions lost: {lost}")


if __name__ == "__main__":
    main()
