"""Live policy comparison: run each policy on a spec, read its row.

``run_policy`` runs one :class:`~repro.experiments.run.RunSpec` under the
given rebalancing policy with the SLA monitor on, and ``read_row`` reads
the comparison row off the :class:`~repro.experiments.run.RunRecord` --
the balancer's plan ledger, event log and load samples, the cluster's
rental accounting, the SLA monitor's report and how many published
updates came back.  Nothing is modelled: a row says what that policy
*did*.  ``make_report`` gathers every policy's row on one spec and seed
(:func:`repro.sweep.lab_sweep` runs them), and
``report_markdown`` renders it, byte-identical run to run.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.run import RunRecord, RunSpec, run, with_policy
from repro.obs.trace import Tracer

REPORT_SCHEMA = 3

#: SLA threshold on the windowed delivery latency of every lab run.
SLA_THRESHOLD_S = 0.25

#: The ``SPECS`` entries ``python -m repro.sweep lab`` runs by default.
LAB_SPECS: Tuple[str, ...] = ("steady", "flash-crowd", "crash")


def run_policy(spec: RunSpec, policy: str, seed: int) -> Dict[str, Any]:
    """Run ``spec`` live under ``policy``; return its comparison row."""
    # The previous run's cluster and buffered trace are cyclic garbage that
    # the kernel's GC policy would freeze for the whole of this run (six
    # flash-crowd runs in one process: 450 MB peak without this, 96 with).
    gc.collect()
    return read_row(
        run(
            with_policy(spec, policy, sla_threshold_s=SLA_THRESHOLD_S),
            seed,
            tracer=Tracer(),  # buffered: the SLA monitor rides the tracer
        )
    )


def read_row(record: RunRecord) -> Dict[str, Any]:
    """One policy's row, read off a finished SLA-monitored run."""
    sla = record.sla
    assert sla is not None
    kinds = Counter(kind for __, kind, __ in record.balancer_events)
    ratios = [lr for __, sample in record.load_history for lr in sample.values()]
    return {
        "policy": record.policy,
        "ticks": len(record.load_history),
        "plan_pushes": record.plan_pushes,
        "migrations": record.migrations,
        "repairs": kinds["repair"],
        "spawns": kinds["spawn-request"],
        "decommissions": kinds["decommission"],
        "server_seconds": record.server_seconds,
        "server_hours": record.server_seconds / 3600.0,
        "peak_load_ratio": max(ratios, default=0.0),
        "mean_load_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "final_plan_version": record.final_plan_version,
        "final_server_count": record.final_server_count,
        # the report's headline: the cluster-wide scope, an episode still
        # open when the run stops measured until then
        "sla_violations": sla["violation_count"],
        "sla_violation_seconds": sla["violation_seconds"],
        # own updates that came back / updates published: what a policy
        # lost is invisible to the SLA columns (silence violates nothing)
        "delivery_ratio": record.delivery_ratio(),
        "sla": sla,
    }


def make_report(scenario: RunSpec, seed: int, rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """All policies' rows on one scenario, as the JSON-able report."""
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "describe": scenario.describe,
        "seed": seed,
        "duration_s": scenario.duration_s,
        "sla_threshold_s": SLA_THRESHOLD_S,
        "policies": list(rows),
    }


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
        "| policy | SLA viol. | SLA sec | delivered | pushes | migrations "
        "| spawns | decomm. | server-h | peak LR | mean LR |"
    )
    out("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    for m in rows:
        out(
            f"| {m['policy']} | {m['sla_violations']} "
            f"| {m['sla_violation_seconds']:.1f} | {m['delivery_ratio']:.3f} "
            f"| {m['plan_pushes']} | {m['migrations']} | {m['spawns']} "
            f"| {m['decommissions']} "
            f"| {m['server_hours']:.3f} | {m['peak_load_ratio']:.2f} "
            f"| {m['mean_load_ratio']:.2f} |"
        )
    out("")
    out(
        "Columns: SLA violation episodes and total seconds in violation; "
        "share of published updates that came back to their publisher; "
        "plan pushes and channel reassignments (churn); servers rented "
        "and released; total server-hours; peak and mean per-server load "
        "ratio over the run."
    )
    return "\n".join(lines) + "\n"
