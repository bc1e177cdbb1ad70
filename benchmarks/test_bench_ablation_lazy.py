"""Ablation: lazy plan propagation vs eager broadcast-to-all-clients.

The paper's design argument (section IV): "sending a new global plan to
all clients at reconfiguration time would create a huge message overhead.
Furthermore ... individual clients are likely only interested in a few of
these channels".  This ablation runs the same rebalancing-heavy RGame
workload under both propagation policies and compares the control-message
overhead: lazy notifies only the clients that actually touch a moved
channel; eager notifies everyone about everything.
"""

from benchmarks.conftest import run_once
from benchmarks.stepped_rgame import run_stepped_rgame
from repro.experiments.report import table


def run_policy(eager: bool, seed: int = 0):
    cluster, workload, steady_rt = run_stepped_rgame(seed, eager_plan_push=eager)
    lazy_notices = sum(d.redirects_sent for d in cluster.dispatchers.values())
    switch_notices = sum(d.switch_notices_sent for d in cluster.dispatchers.values())
    eager_notices = cluster.balancer.eager_notices_sent
    return {
        "rebalances": len(cluster.balancer.rebalance_times()),
        "lazy_notices": lazy_notices,
        "switch_notices": switch_notices,
        "eager_notices": eager_notices,
        "control_total": lazy_notices + switch_notices + eager_notices,
        "steady_rt_ms": steady_rt * 1000 if steady_rt else None,
        "population": workload.population,
    }


def test_bench_ablation_lazy_vs_eager(benchmark):
    def run_both():
        return run_policy(eager=False), run_policy(eager=True)

    lazy, eager = run_once(benchmark, run_both)

    rows = [
        ["lazy (paper)", lazy["rebalances"], lazy["control_total"],
         lazy["eager_notices"], f"{lazy['steady_rt_ms']:.0f}"],
        ["eager (strawman)", eager["rebalances"], eager["control_total"],
         eager["eager_notices"], f"{eager['steady_rt_ms']:.0f}"],
    ]
    print()
    print("Ablation -- plan propagation policy (150 players, same workload)")
    print(table(
        ["policy", "rebalances", "control msgs", "broadcasts", "steady rt ms"], rows
    ))

    # Both policies keep the system functional (the 150-player scenario
    # deliberately runs warm, so steady state sits near the bound)...
    assert lazy["steady_rt_ms"] < 250
    assert eager["steady_rt_ms"] < 250
    # ...but eager pays a pure broadcast overhead for the same outcome:
    # every client is notified of every change, relevant to it or not.
    assert eager["eager_notices"] > 1000
    assert eager["control_total"] > lazy["control_total"] + 1000
    # and lazy sends no broadcasts at all
    assert lazy["eager_notices"] == 0

    benchmark.extra_info["lazy_control_msgs"] = lazy["control_total"]
    benchmark.extra_info["eager_control_msgs"] = eager["control_total"]
