"""The one macro run: ``RunSpec`` / ``build`` / ``run`` / ``RunRecord``."""

import hashlib
import pickle
from dataclasses import replace

import pytest

from repro.core.config import DynamothConfig
from repro.experiments.run import SPECS, RunSpec, build, run, with_policy
from repro.obs.export import event_to_json
from repro.obs.trace import Tracer

#: the lab's crash, cut to the recovery's first ten seconds, SLA monitor on
MINI_CRASH = replace(
    with_policy(SPECS["crash"], "paper", sla_threshold_s=0.25), duration_s=40.0
)
STATIC = RunSpec(
    name="static",
    describe="a static population on two servers",
    duration_s=15.0,
    population=((0.0, 12),),
    tiles_per_side=2,
    nominal_egress_bps=250_000.0,
    config=DynamothConfig(max_servers=2),
    initial_servers=2,
)


def body_sha256(tracer):
    """The digest ``repro.check`` pins: the event lines, no metrics trailer
    (the sampler's one tick per second is in ``sim_events_total``)."""
    lines = [event_to_json(e) for e in tracer.events]
    return len(lines), hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_named_spec_is_well_formed_plain_data(name):
    spec = SPECS[name]
    assert spec.name == name
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert spec.duration_s >= spec.population[-1][0]
    bootstrap = {f"pub{i + 1}" for i in range(spec.initial_servers)}
    assert {action.server for action in spec.faults} <= bootstrap


def test_fault_on_a_server_that_is_not_bootstrapped_is_rejected():
    spec = replace(SPECS["crash"], initial_servers=1)
    with pytest.raises(ValueError, match="not a bootstrap server"):
        build(spec, 0)


def test_the_readers_only_read():
    """``run`` is ``build`` plus a response-time sink and a sampler: the
    traced simulation is the same with and without them."""
    with_readers, bare = Tracer(), Tracer()
    record = run(MINI_CRASH, 3, tracer=with_readers)
    cluster, __ = build(MINI_CRASH, 3, tracer=bare)
    cluster.run_until(MINI_CRASH.duration_s)
    count, digest = body_sha256(with_readers)
    assert count > 10_000
    assert (count, digest) == body_sha256(bare)
    # ... and ``run`` reports the monitor as the run left it, unpolled
    assert record.sla == cluster.sla_monitor.report(cluster.sim.now)
    assert pickle.loads(pickle.dumps(record)).sla == record.sla


def test_one_breakpoint_is_a_static_population_without_a_driver():
    cluster, workload = build(STATIC, 0)
    assert cluster.sim.now == 0.0
    assert workload.population == 12
    assert not workload._driver.running
    __, followed = build(replace(STATIC, population=((0.0, 12), (15.0, 12))), 0)
    assert followed._driver.running and followed.population == 0


def test_delivery_ratio_is_responses_over_updates():
    record = run(STATIC, 5)
    responses = []
    cluster, workload = build(STATIC, 5, rtt_sink=lambda rtt, t: responses.append(t))
    cluster.run_until(STATIC.duration_s)
    assert workload.total_updates_sent() == record.updates_sent > 0
    assert record.delivery_ratio() == len(responses) / record.updates_sent
    assert 0.9 < record.delivery_ratio() <= 1.0


@pytest.mark.parametrize(
    "policy, rebalances",
    [
        ("paper", [38, 53, 63, 68, 78, 88, 98]),
        ("consistent_hashing", [38, 53, 68]),
    ],
)
def test_fig5_smoke_is_the_run_experiment2_made(policy, rebalances):
    """Pinned from Experiment 2's own harness on the last commit that had
    one (2776250): the harness moved, the simulation did not."""
    record = run(with_policy(SPECS["fig5-smoke"], policy))
    assert record.policy == policy
    assert record.max_sustainable_players() == 35
    assert record.final_server_count == 4
    assert [round(t) for t in record.rebalance_times] == rebalances
