"""Spawn-safe sweep work units and their worker functions.

Each task is a frozen dataclass of primitives (hashable, picklable under
the ``spawn`` start method) and each worker is a plain module-level
function mapping one task to one JSON-serializable dict.  Workers never
read the wall clock (DET001).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class CheckTask:
    """One property-test scenario seed."""

    seed: int
    delivery_tier: Optional[str] = None
    causal_order: Optional[bool] = None


@dataclass(frozen=True)
class LabTask:
    """Run one named run spec live under one policy."""

    scenario: str
    policy: str
    seed: int
    sla_threshold_s: float


def check_worker(task: CheckTask) -> Dict[str, Any]:
    """Run one generated scenario through every oracle.

    The ``trace_sha256`` digest covers the full schema-2 trace body --
    the strongest per-seed determinism witness we have: two runs of the
    same seed (any process count, any machine) must agree on it.
    """
    from repro.check.generate import generate_scenario
    from repro.check.oracles import check_result
    from repro.check.scenario import run_scenario

    scenario = generate_scenario(
        task.seed,
        delivery_tier=task.delivery_tier,
        causal_order=task.causal_order,
    )
    result = run_scenario(scenario)
    violations = check_result(result)
    digest = hashlib.sha256(result.trace_bytes()).hexdigest()
    return {
        "seed": task.seed,
        "label": scenario.label,
        "delivery_tier": scenario.delivery_tier,
        "causal_order": scenario.causal_order,
        "ok": not violations,
        "events": len(result.tracer.events),
        "deliveries": len(result.ledger.deliveries),
        "trace_sha256": digest,
        "violations": [str(v) for v in violations],
    }


def lab_worker(task: LabTask) -> Dict[str, Any]:
    """One (scenario, policy) live run; returns the policy's report row."""
    from repro.experiments.run import SPECS
    from repro.lab.compare import run_policy

    row = run_policy(
        SPECS[task.scenario], task.policy, task.seed, task.sla_threshold_s
    )
    return {"scenario": task.scenario, "row": row}
