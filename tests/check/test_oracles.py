"""Oracle unit tests: each oracle fires on a tampered trace and stays
silent on an honest run."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.check.oracles import (
    _merge_windows,
    check_result,
    oracle_at_most_once,
    oracle_loss_free,
    oracle_replication_soundness,
    turbulence_windows,
)
from repro.broker.commands import ConnectionClosed
from repro.check.scenario import Scenario, TraceView, run_scenario
from repro.core.client import DynamothClient
from repro.core.cluster import DynamothCluster
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.faults.schedule import CrashServer, PartitionNodes
from repro.obs.trace import DeliveryEvent, SubscribeEvent, Tracer

#: a small, calm, steady scenario: no faults, no turbulence windows
CALM = Scenario(seed=5, channels=2, subscribers=3, publishers=2)


@pytest.fixture(scope="module")
def calm_result():
    return run_scenario(CALM)


def test_calm_run_passes_every_oracle(calm_result):
    assert check_result(calm_result) == []


def with_trace(result, events):
    """``result`` with ``events`` as its trace: the oracles read a fresh view."""
    tracer = Tracer()
    tracer.events = list(events)
    return replace(result, tracer=tracer)


def test_at_most_once_fires_on_duplicate_delivery(calm_result):
    events = calm_result.tracer.events
    first = next(e for e in events if isinstance(e, DeliveryEvent))
    violations = oracle_at_most_once(with_trace(calm_result, [*events, first]))
    assert len(violations) == 1
    assert violations[0].oracle == "at-most-once"
    assert first.client in violations[0].detail and first.msg_id in violations[0].detail


def test_loss_free_fires_on_suppressed_delivery(calm_result):
    # Erase one subscriber's every delivery: some mid-run publication on a
    # channel it stably covered must now be "lost".
    victim = CALM.subscriber_ids()[0]
    events = [
        e for e in calm_result.tracer.events
        if not (isinstance(e, DeliveryEvent) and e.client == victim)
    ]
    violations = oracle_loss_free(with_trace(calm_result, events))
    assert violations, "suppressing all deliveries went unnoticed"
    assert all(v.oracle == "loss-free" for v in violations)
    assert any(victim in v.detail for v in violations)


def test_replication_soundness_fires_below_thresholds(calm_result):
    # Graft a plan that replicates a channel although the calm workload
    # is far below Algorithm 1's activation thresholds.
    servers = sorted(calm_result.cluster.servers)[:2]
    bad_plan = calm_result.final_plan.evolve(
        mappings={
            "room:0": ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, tuple(servers))
        }
    )
    tampered = SimpleNamespace(
        scenario=calm_result.scenario,
        cluster=calm_result.cluster,
        plan_history=calm_result.plan_history + [(99.0, bad_plan)],
    )
    violations = oracle_replication_soundness(tampered)
    assert any(
        v.oracle == "replication-soundness" and "thresholds" in v.detail
        for v in violations
    )


def test_merge_windows_coalesces_overlaps():
    assert _merge_windows([(5.0, 9.0), (1.0, 3.0), (2.0, 6.0)]) == [(1.0, 9.0)]
    assert _merge_windows([]) == []
    assert _merge_windows([(1.0, 2.0), (3.0, 4.0)]) == [(1.0, 2.0), (3.0, 4.0)]


def test_turbulence_windows_cover_faults_with_margin():
    scenario = Scenario(seed=0)
    fake = SimpleNamespace(
        scenario=scenario,
        fault_timeline=(
            CrashServer(8.0, "pub1"),
            PartitionNodes(10.0, "pub2", "pub3", until=12.0),
        ),
    )
    windows = turbulence_windows(fake)
    assert len(windows) == 1  # crash and partition windows overlap-merge
    lo, hi = windows[0]
    assert lo <= 7.0 and hi >= 27.0  # covers both margins


def test_no_faults_means_no_turbulence(calm_result):
    assert turbulence_windows(calm_result) == []


def test_a_reconnect_keeps_one_subscription_interval():
    # A closed connection makes the client re-subscribe a channel it still
    # holds: a second SubscribeEvent, and still one interval in the view.
    tracer = Tracer()
    cluster = DynamothCluster(seed=0, initial_servers=2, tracer=tracer)
    client = cluster.create_client("reader")
    client.subscribe("room:0")
    cluster.run_until(1.0)
    (server,) = client.subscription_servers("room:0")
    client.receive(ConnectionClosed(server, "server-shutdown"), server)
    cluster.run_until(3.0)
    subscribes = [
        e.t for e in tracer.events if isinstance(e, SubscribeEvent) and e.client == "reader"
    ]
    assert subscribes == [0.0, 1.0 + DynamothClient.RECONNECT_DELAY_S]
    view = TraceView.read(tracer.events, horizon=3.0)
    assert view.sub_intervals == {("reader", "room:0"): [[0.0, 3.0]]}
    assert view.covers("reader", "room:0", 0.0, 3.0)
