"""The policy lab: compare rebalancing policies by running each one.

The policy seam (:mod:`repro.core.policy`) makes every placement rule a
plug-in of the one :class:`~repro.core.balancer.LoadBalancer`; the lab is
the harness that exploits it.  :func:`run_policy` runs one live scenario
under one policy and reads the comparison row -- SLA violations, plan
pushes, migration churn, spawns, rented server-hours, load ratios -- off
the records the run itself keeps; :func:`compare_policies` tabulates every
registered policy on the same scenario and seed.

``python -m repro.lab compare`` is the front end; ``python -m repro.sweep
lab`` fans all scenarios over worker processes.
"""

from repro.lab.compare import (
    SCENARIOS,
    Scenario,
    compare_policies,
    report_json,
    report_markdown,
    run_policy,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "compare_policies",
    "report_json",
    "report_markdown",
    "run_policy",
]
