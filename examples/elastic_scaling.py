#!/usr/bin/env python
"""Elasticity: the server pool following the load up *and* down.

Reproduces the spirit of the paper's Experiment 3 at demo scale: a player
population climbs, collapses, and climbs again, while the load balancer
rents and releases pub/sub servers.  Low-load rebalancing drains the
least-loaded server onto the others and decommissions it -- deliberately
lazily, since scale-down "is less critical for performance reasons, but
nevertheless essential for cost saving purposes".

Run with::

    python examples/elastic_scaling.py
"""

from repro.core.config import DynamothConfig
from repro.experiments.report import render_figure7
from repro.experiments.run import RunSpec, run

#: Figure 7's shape at demo scale: 0 -> 150 -> 40 -> 110 players, one
#: minute per climb, fall and plateau.
DEMO = RunSpec(
    name="fig7-demo",
    describe="elasticity at demo scale",
    duration_s=390.0,
    population=(
        (0.0, 0), (60.0, 150), (120.0, 150), (180.0, 40),
        (240.0, 40), (300.0, 110), (360.0, 110),
    ),
    tiles_per_side=5,
    nominal_egress_bps=180_000.0,
    config=DynamothConfig(max_servers=6, plan_entry_timeout_s=15.0),
)


def main() -> None:
    peak1, trough, peak2 = (DEMO.population[i][1] for i in (1, 3, 5))
    print(f"population plan: 0 -> {peak1} -> {trough} -> {peak2} players\n")
    result = run(DEMO)
    print(render_figure7(result))
    print(f"\npeak servers: {result.peak_server_count()}")
    print(f"scaled back down after the drop: {result.scaled_down()}")
    for t, kind, detail in result.balancer_events:
        if kind == "decommission":
            print(f"  t={t:6.1f}s decommissioned {detail}")


if __name__ == "__main__":
    main()
