"""Fan tasks over a process pool; merge results in task order.

The orchestrator's one hard promise is *byte-stable merging*: the
merged document depends only on the task list and each task's result,
never on completion order or worker count.  ``ProcessPoolExecutor.map``
yields results in submission order, and single-process mode is a plain
in-order loop, so ``--procs 8`` and ``--procs 1`` produce identical
reports.

The pool always uses the ``spawn`` start method: workers re-import
:mod:`repro` from scratch, which keeps them honest (no inherited
module state) and matches the only start method available everywhere.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.core.policy import available_policies
from repro.experiments.run import SPECS
from repro.lab.compare import DEFAULT_SLA_THRESHOLD_S, make_report
from repro.sweep.workers import CheckTask, LabTask, check_worker, lab_worker

SWEEP_SCHEMA = 1

_T = TypeVar("_T")


def run_tasks(
    worker: Callable[[_T], Dict[str, Any]],
    tasks: Sequence[_T],
    *,
    procs: int = 1,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> List[Dict[str, Any]]:
    """Run ``worker`` over ``tasks``; results always in task order."""
    results: List[Dict[str, Any]] = []
    if procs <= 1 or len(tasks) <= 1:
        for task in tasks:
            result = worker(task)
            if progress is not None:
                progress(result)
            results.append(result)
        return results
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=procs, mp_context=context) as pool:
        # chunksize=1 so a slow task never delays unrelated chunks; map
        # still yields strictly in submission order.
        for result in pool.map(worker, tasks, chunksize=1):
            if progress is not None:
                progress(result)
            results.append(result)
    return results


# ----------------------------------------------------------------------
# check soak
# ----------------------------------------------------------------------
def check_sweep(
    iterations: int,
    *,
    seeds: Optional[Iterable[int]] = None,
    delivery_tier: Optional[str] = None,
    causal_order: Optional[bool] = None,
    procs: int = 1,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Soak ``iterations`` generated scenario seeds through the oracles.

    The returned document intentionally omits the process count and any
    wall-clock data: a soak's report is byte-identical however it was
    parallelized.
    """
    seed_list = list(seeds) if seeds is not None else list(range(iterations))
    tasks = [
        CheckTask(seed=s, delivery_tier=delivery_tier, causal_order=causal_order)
        for s in seed_list
    ]
    results = run_tasks(check_worker, tasks, procs=procs, progress=progress)
    failed = [r["seed"] for r in results if not r["ok"]]
    return {
        "schema": SWEEP_SCHEMA,
        "mode": "check",
        "results": results,
        "summary": {
            "total": len(results),
            "passed": len(results) - len(failed),
            "failed": len(failed),
            "failed_seeds": failed,
        },
    }


def check_markdown(doc: Dict[str, Any]) -> str:
    summary = doc["summary"]
    lines = [
        "# Check soak",
        "",
        f"{summary['passed']}/{summary['total']} seeds passed every oracle.",
        "",
        "| seed | tier | causal | events | deliveries | status |",
        "|---:|---|---|---:|---:|---|",
    ]
    for r in doc["results"]:
        status = "ok" if r["ok"] else f"FAIL ({len(r['violations'])})"
        lines.append(
            f"| {r['seed']} | {r['delivery_tier']} | {r['causal_order']} "
            f"| {r['events']} | {r['deliveries']} | {status} |"
        )
    if summary["failed"]:
        lines.append("")
        lines.append("Replay a failing seed (with shrinking):")
        lines.append("")
        for seed in summary["failed_seeds"]:
            lines.append(f"    python -m repro.check --seed {seed}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# policy lab
# ----------------------------------------------------------------------
def lab_sweep(
    scenarios: Sequence[str],
    *,
    seed: int = 0,
    policies: Sequence[str] = (),
    sla_threshold_s: float = DEFAULT_SLA_THRESHOLD_S,
    procs: int = 1,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run every (scenario, policy) pair live; one report per scenario."""
    scenarios = list(dict.fromkeys(scenarios))  # a repeated name runs once
    tasks = [
        LabTask(scenario=name, policy=policy, seed=seed, sla_threshold_s=sla_threshold_s)
        for name in scenarios
        for policy in policies or available_policies()
    ]
    results = run_tasks(lab_worker, tasks, procs=procs, progress=progress)
    return {
        "schema": SWEEP_SCHEMA,
        "mode": "lab",
        "seed": seed,
        "scenarios": {
            name: make_report(
                SPECS[name],
                seed,
                sla_threshold_s,
                [r["row"] for r in results if r["scenario"] == name],
            )
            for name in scenarios
        },
    }
