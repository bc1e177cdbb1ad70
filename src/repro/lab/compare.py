"""Live policy comparison: run each policy on a scenario, read its row.

``run_policy`` builds one scenario's cluster with the given rebalancing
policy, runs it in the simulator, and reads the comparison row off the
records the live system keeps anyway -- the balancer's plan ledger, event
log and load samples, the cluster's rental accounting and the SLA
monitor's report.  Nothing is modelled: a row says what that policy *did*.
``compare_policies`` does so for every requested policy on the same
scenario, seed and SLA threshold; the report renders to markdown (for
humans and CI artifacts) and JSON (for tooling), both byte-identical run
to run.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.broker.config import BrokerConfig
from repro.core.cluster import DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.policy import available_policies
from repro.faults import ChaosSchedule, FaultInjector
from repro.obs.sla import OVERALL_SCOPE
from repro.obs.trace import Tracer
from repro.workload.rgame import RGameConfig, RGameWorkload
from repro.workload.schedules import PopulationSchedule, steps

REPORT_SCHEMA = 2

#: SLA threshold on the windowed delivery latency, unless one is given.
DEFAULT_SLA_THRESHOLD_S = 0.25


@dataclass(frozen=True)
class Scenario:
    """One live scenario the policies are compared on."""

    name: str
    describe: str
    duration_s: float
    initial_servers: int
    max_servers: int
    nominal_egress_bps: float
    schedule: PopulationSchedule
    tiles_per_side: int = 3
    updates_per_s: float = 3.0
    payload_size: int = 200
    #: crash the second bootstrap server at this time (None = no faults)
    crash_at_s: Optional[float] = None

    def dynamoth_config(self) -> DynamothConfig:
        return DynamothConfig(
            max_servers=self.max_servers,
            min_servers=1,
            spawn_delay_s=5.0,
            t_wait_s=10.0,
        )

    def broker_config(self) -> BrokerConfig:
        return BrokerConfig(
            nominal_egress_bps=self.nominal_egress_bps,
            cpu_per_publish_s=10e-6,
            cpu_per_delivery_s=5e-6,
            per_connection_bps=None,
            output_buffer_limit_bytes=8 * 1_048_576,
        )


#: Every lab scenario, by name (``--scenario`` of ``python -m repro.lab
#: compare`` and ``python -m repro.sweep lab``).
SCENARIOS: Dict[str, Scenario] = {
    # Mild constant load on an over-provisioned pool: exercises the
    # low-load drain path (server-hours differ across policies).
    "steady": Scenario(
        name="steady",
        describe="constant moderate load, over-provisioned pool",
        duration_s=60.0,
        initial_servers=2,
        max_servers=4,
        nominal_egress_bps=200_000.0,
        schedule=steps([(0.0, 30), (60.0, 30)]),
    ),
    # A quiet start, then the population quadruples in seconds: the
    # paper's flash-crowd shape.  Overloads the single bootstrap
    # server hard enough to force migrations and spawns.
    "flash-crowd": Scenario(
        name="flash-crowd",
        describe="population spike overloading the bootstrap server",
        duration_s=90.0,
        initial_servers=1,
        max_servers=4,
        nominal_egress_bps=150_000.0,
        schedule=steps([(0.0, 12), (20.0, 12), (28.0, 90), (90.0, 90)]),
    ),
    # Steady load, one broker hard-crashes mid-run: every policy's
    # unknown-channel placement repairs the plan.
    "crash": Scenario(
        name="crash",
        describe="broker crash under steady load",
        duration_s=90.0,
        initial_servers=3,
        max_servers=4,
        nominal_egress_bps=250_000.0,
        schedule=steps([(0.0, 40), (90.0, 40)]),
        crash_at_s=30.0,
    ),
}


def run_policy(
    scenario: Scenario, policy: str, seed: int, sla_threshold_s: float
) -> Dict[str, Any]:
    """Run ``scenario`` live under ``policy``; return its comparison row."""
    # The previous run's cluster and buffered trace are cyclic garbage that
    # the kernel's GC policy would freeze for the whole of this run (six
    # flash-crowd runs in one process: 450 MB peak without this, 96 with).
    gc.collect()
    cluster = DynamothCluster(
        seed=seed,
        config=replace(
            scenario.dynamoth_config(),
            rebalance_policy=policy,
            sla_threshold_s=sla_threshold_s,
        ),
        broker_config=scenario.broker_config(),
        initial_servers=scenario.initial_servers,
        tracer=Tracer(),  # buffered: the SLA monitor rides the tracer
    )
    if scenario.crash_at_s is not None:
        victim = sorted(cluster.servers)[min(1, len(cluster.servers) - 1)]
        FaultInjector(
            cluster, ChaosSchedule.single_crash(victim, at=scenario.crash_at_s)
        ).arm()
    workload = RGameWorkload(
        cluster,
        RGameConfig(
            tiles_per_side=scenario.tiles_per_side,
            updates_per_s=scenario.updates_per_s,
            payload_size=scenario.payload_size,
        ),
    )
    workload.follow(scenario.schedule)
    cluster.run_until(scenario.duration_s)
    workload.stop()
    return _read_row(cluster)


def _read_row(cluster: DynamothCluster) -> Dict[str, Any]:
    """One policy's row, read off a finished SLA-monitored run."""
    balancer = cluster.balancer
    monitor = cluster.sla_monitor
    assert balancer is not None and monitor is not None
    plans = [plan for __, plan in balancer.plan_history]
    kinds = Counter(event.kind for event in balancer.events)
    ratios = [lr for __, sample in balancer.load_history for lr in sample.values()]
    sla = monitor.report()
    # Headline counts use the cluster-wide scope only (the per-channel and
    # per-server episodes stay in the full report); an episode still open
    # when the run stops has lasted until then.
    overall = [v for v in sla["violations"] if v["scope"] == OVERALL_SCOPE]
    end_t = cluster.sim.now
    server_seconds = cluster.server_seconds()
    return {
        "policy": balancer.policy.name,
        "ticks": len(balancer.load_history),
        "plan_pushes": len(plans) - 1,
        # channel assignment changes across all pushed plans (plan churn)
        "migrations": sum(len(old.diff(new)) for old, new in zip(plans, plans[1:])),
        "repairs": kinds["repair"],
        "spawns": kinds["spawn-request"],
        "decommissions": kinds["decommission"],
        "server_seconds": server_seconds,
        "server_hours": server_seconds / 3600.0,
        "peak_load_ratio": max(ratios, default=0.0),
        "mean_load_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "final_plan_version": balancer.plan.version,
        "final_server_count": len(balancer.active_servers),
        "sla_violations": len(overall),
        "sla_violation_seconds": sum(
            ((end_t if v["end_t"] is None else v["end_t"]) - v["start_t"] for v in overall),
            0.0,
        ),
        "sla": sla,
    }


def make_report(
    scenario: Scenario,
    seed: int,
    sla_threshold_s: float,
    rows: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """All policies' rows on one scenario, as the JSON-able report."""
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "describe": scenario.describe,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "sla_threshold_s": sla_threshold_s,
        "policies": list(rows),
    }


def compare_policies(
    scenario: Scenario,
    policies: Sequence[str] = (),
    *,
    seed: int = 0,
    sla_threshold_s: float = DEFAULT_SLA_THRESHOLD_S,
) -> Dict[str, Any]:
    """Run ``scenario`` under each policy (default: all registered)."""
    rows = [
        run_policy(scenario, name, seed, sla_threshold_s)
        for name in policies or available_policies()
    ]
    return make_report(scenario, seed, sla_threshold_s, rows)


def report_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def report_markdown(report: Dict[str, Any]) -> str:
    """A deterministic markdown rendering of one report (the CI artifact)."""
    rows: List[Dict[str, Any]] = report["policies"]
    lines: List[str] = []
    out = lines.append
    out(f"# Policy lab: `{report['scenario']}`")
    out("")
    out(
        f"Scenario: {report['describe']}.  Each of {len(rows)} policies ran "
        f"it live for {report['duration_s']:.0f}s on seed {report['seed']}; "
        f"SLA threshold {report['sla_threshold_s'] * 1000:.0f} ms on the "
        f"windowed delivery-latency quantile."
    )
    out("")
    out(
        "| policy | SLA viol. | SLA sec | pushes | migrations | spawns "
        "| decomm. | server-h | peak LR | mean LR |"
    )
    out("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    for m in rows:
        out(
            f"| {m['policy']} | {m['sla_violations']} "
            f"| {m['sla_violation_seconds']:.1f} | {m['plan_pushes']} "
            f"| {m['migrations']} | {m['spawns']} | {m['decommissions']} "
            f"| {m['server_hours']:.3f} | {m['peak_load_ratio']:.2f} "
            f"| {m['mean_load_ratio']:.2f} |"
        )
    out("")
    out(
        "Columns: SLA violation episodes and total seconds in violation; "
        "plan pushes and channel reassignments (churn); servers rented "
        "and released; total server-hours; peak and mean per-server load "
        "ratio over the run."
    )
    return "\n".join(lines) + "\n"
