"""The policy lab: compare rebalancing policies by running each one.

The policy seam (:mod:`repro.core.policy`) makes every placement rule a
plug-in of the one :class:`~repro.core.balancer.LoadBalancer`; the lab is
the harness that exploits it.  :func:`run_policy` runs one
:class:`~repro.experiments.run.RunSpec` under one policy and
:func:`read_row` reads the comparison row -- SLA violations, delivery
ratio, plan pushes, migration churn, spawns, rented server-hours, load
ratios -- off the run's record; :func:`make_report` gathers one spec's
rows and :func:`report_markdown` renders them.

``python -m repro.sweep lab`` is the front end: it runs every
(spec, policy) pair, in process or over worker processes.
"""

from repro.lab.compare import (
    LAB_SPECS,
    make_report,
    read_row,
    report_markdown,
    run_policy,
)

__all__ = [
    "LAB_SPECS",
    "make_report",
    "read_row",
    "report_markdown",
    "run_policy",
]
