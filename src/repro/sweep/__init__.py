"""``repro.sweep`` -- multiprocess sweep orchestrator.

Fans deterministic per-seed work units out over a process pool and
merges the results into byte-stable JSON / markdown reports:

* ``check``  -- property-test soak: N generated scenario seeds through
  the :mod:`repro.check` oracles;
* ``lab``    -- run each :mod:`repro.lab` scenario live under every
  registered rebalancing policy, one *(scenario, policy)* run per unit.

Every work unit is a frozen dataclass of primitives (spawn-picklable)
and every worker is a module-level function, so the pool works under
the ``spawn`` start method.  Results are merged in task order -- never
completion order -- so a sweep's report is byte-identical whether it
ran on one process or eight.  Like everything under ``src/repro``, sweep
code never reads the wall clock (DET001); host-time measurement lives in
``benchmarks/ledger/``.
"""

from repro.sweep.orchestrator import (
    SWEEP_SCHEMA,
    check_sweep,
    lab_sweep,
    run_tasks,
)
from repro.sweep.workers import CheckTask, LabTask, check_worker, lab_worker

__all__ = [
    "SWEEP_SCHEMA",
    "CheckTask",
    "LabTask",
    "check_sweep",
    "check_worker",
    "lab_sweep",
    "lab_worker",
    "run_tasks",
]
