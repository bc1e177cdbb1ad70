"""Recovery invariants after a broker crash: nothing lost, all deterministic.

These tests run the canonical chaos scenario (crash one of three brokers
under the RGame workload) end to end and assert the subsystem's core
guarantees:

* every live subscriber resumes delivery after the crash;
* no subscription is silently dropped;
* the whole run -- fault timeline, recovery milestones, full event trace
  -- is byte-identical across repeated runs of the same seed.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments.chaos import ChaosScenarioConfig, run_chaos
from repro.experiments.run import build
from repro.obs.export import write_trace
from repro.obs.recovery import RecoveryWatch
from repro.obs.trace import (
    ClientFailoverEvent,
    ClientReconnectEvent,
    DeliveryEvent,
    PlanRepairDoneEvent,
    PublishEvent,
    ServerCrashEvent,
    ServerFailureConfirmedEvent,
    ServerSuspectEvent,
    Tracer,
)

# A trimmed-down scenario so the suite stays fast: 12 players, 2x2 tiles,
# crash at t=10s, 40 simulated seconds.
FAST = ChaosScenarioConfig(
    tiles_per_side=2,
    players=12,
    crash_at_s=10.0,
    duration_s=40.0,
    nominal_egress_bps=250_000.0,
)


class TestCrashRecoveryInvariants:
    def test_single_broker_crash_recovers_every_subscriber(self):
        result = run_chaos(FAST)
        assert result.detection_s is not None, "heartbeat never confirmed"
        assert result.repair_s is not None, "plan never repaired"
        assert result.failover_count > 0, "no client noticed the crash"
        assert result.recovered, "a subscriber never resumed delivery"
        assert result.recovery_s is not None
        # Generous sanity bound; typical recovery is a few seconds.
        assert result.recovery_s < FAST.duration_s - FAST.crash_at_s

    def test_recovery_chain_order(self):
        result = run_chaos(FAST)
        events = list(result.tracer.events)
        suspect = next(e.t for e in events if isinstance(e, ServerSuspectEvent))
        confirm = next(
            e.t for e in events if isinstance(e, ServerFailureConfirmedEvent)
        )
        repaired = next(e.t for e in events if isinstance(e, PlanRepairDoneEvent))
        assert result.crash_t <= suspect <= confirm <= repaired

    def test_no_subscription_dropped(self):
        # ``build`` rather than ``run_chaos`` so the clients can be
        # inspected afterwards.
        spec = FAST.spec()
        cluster, workload = build(spec, FAST.seed)
        victim = spec.faults[0].server
        players = workload.players()
        cluster.run_until(spec.duration_s)

        # Freeze movement (players discover the dead server lazily as they
        # wander into its channels) and give detection a settle window, so
        # nobody is snapshotted mid-failover.
        for player in players:
            player._task.stop()
        cluster.run_for(10.0)

        live = set(cluster.servers)
        assert victim not in live
        for player in players:
            channel = player.current_channel
            assert channel is not None
            assert player.client.is_subscribed(channel)
            servers = player.client.subscription_servers(channel)
            assert servers, f"{player.client.node_id} holds no server for {channel}"
            assert servers <= live, (
                f"{player.client.node_id} still pinned to a dead server: {servers}"
            )
            # The subscription is real on the server side, too.
            assert any(
                cluster.servers[s].subscriber_count(channel) > 0 for s in servers
            )

    def test_restarted_server_rejoins(self):
        config = replace(FAST, restart_after_s=10.0, duration_s=50.0)
        result = run_chaos(config)
        assert result.recovered
        # The resurrection is visible in the trace via the balancer.
        names = {type(e).__name__ for e in result.tracer.events}
        assert "ServerRestartEvent" in names
        assert "ServerResurrectedEvent" in names


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_confirmed_crash_is_routed_around_for_good(seed):
    """Survivors relay the balancer's confirmation, so no client fails over
    from the victim twice or keeps publishing to it after the repair --
    even with a client's own suspicion expiring after 10 s."""
    spec = ChaosScenarioConfig.smoke().spec()
    spec = replace(spec, config=replace(spec.config, failed_server_ttl_s=10.0))
    tracer = Tracer()
    cluster, __ = build(spec, seed, tracer=tracer)
    watch = RecoveryWatch(spec.faults[0].server)
    watch.attach(tracer)
    cluster.run_until(spec.duration_s)

    victim = watch.victim
    assert watch.repair_s is not None
    failovers = Counter(
        e.client for e in tracer.events
        if isinstance(e, ClientFailoverEvent) and e.server == victim
    )
    assert failovers and max(failovers.values()) == 1
    deadline = watch.crash_t + watch.repair_s + 4.0
    late = [
        e.t for e in tracer.events
        if isinstance(e, PublishEvent) and victim in e.targets and e.t > deadline
    ]
    assert late == []


def _milestones_hearing_every_delivery(events, victim):
    """``(recovery_s, failover_count, reconnects)`` read by a watch that
    hears every event: the reference for the watch that hears deliveries
    only while a client is cut off."""
    crash_t, recovered_t, failovers, reconnects = None, None, 0, 0
    awaiting = {}
    for e in events:
        if isinstance(e, ServerCrashEvent) and e.server == victim and crash_t is None:
            crash_t = e.t
        elif isinstance(e, ClientReconnectEvent):
            reconnects += 1
        elif isinstance(e, ClientFailoverEvent) and crash_t is not None and e.server == victim:
            failovers += 1
            awaiting.setdefault(e.client, e.t)
        elif isinstance(e, DeliveryEvent) and e.t > awaiting.get(e.client, e.t):
            del awaiting[e.client]
            recovered_t = e.t if recovered_t is None else max(recovered_t, e.t)
    recovery_s = None if awaiting or recovered_t is None else recovered_t - crash_t
    return recovery_s, failovers, reconnects


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_watch_hears_deliveries_only_while_a_client_is_cut_off(seed, monkeypatch):
    heard = []
    on_delivery = RecoveryWatch.on_delivery

    def recording(watch, event):
        heard.append(event.t)
        on_delivery(watch, event)

    monkeypatch.setattr(RecoveryWatch, "on_delivery", recording)
    tracer = Tracer()
    result = run_chaos(replace(ChaosScenarioConfig.smoke(), seed=seed), tracer=tracer)

    assert (result.recovery_s, result.failover_count, result.reconnects) == (
        _milestones_hearing_every_delivery(tracer.events, result.victim)
    )
    assert result.recovery_s is not None
    first_failover = min(
        e.t for e in tracer.events
        if isinstance(e, ClientFailoverEvent) and e.server == result.victim
    )
    deliveries = [e.t for e in tracer.events if isinstance(e, DeliveryEvent)]
    assert heard[0] >= first_failover
    assert heard[-1] == pytest.approx(result.crash_t + result.recovery_s)
    assert len(heard) < len(deliveries) / 2


class TestDeterminism:
    def _trace_bytes(self, tmp_path, name: str) -> bytes:
        tracer = Tracer()
        run_chaos(FAST, tracer=tracer)
        path = tmp_path / name
        write_trace(path, list(tracer.events))
        return path.read_bytes()

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = self._trace_bytes(tmp_path, "a.jsonl")
        second = self._trace_bytes(tmp_path, "b.jsonl")
        assert first == second

    def test_milestones_are_reproducible(self):
        a = run_chaos(FAST)
        b = run_chaos(FAST)
        assert (a.victim, a.crash_t, a.detection_s, a.repair_s) == (
            b.victim,
            b.crash_t,
            b.detection_s,
            b.repair_s,
        )
        assert (a.failover_count, a.recovery_s, a.reconnects) == (
            b.failover_count,
            b.recovery_s,
            b.reconnects,
        )

    def test_different_seeds_differ(self):
        a = run_chaos(FAST)
        b = run_chaos(replace(FAST, seed=1))
        assert [type(e).__name__ for e in a.tracer.events] != [
            type(e).__name__ for e in b.tracer.events
        ]
