"""Ablation: sensitivity to the LR^high / LR^safe thresholds.

DESIGN.md calls out the load-ratio thresholds as the pivotal tuning knobs
of Algorithm 2.  This sweep runs the same overload scenario under three
threshold pairs:

* *eager* (low thresholds) rebalances early -- fewest overload seconds but
  the most plan churn;
* *paper-like* defaults balance the two;
* *complacent* (thresholds near the failure point) tolerates sustained
  overload before reacting.
"""

from benchmarks.conftest import run_once
from benchmarks.stepped_rgame import run_stepped_rgame
from repro.experiments.report import table

SETTINGS = {
    "eager": dict(lr_high=0.70, lr_safe=0.55),
    "paper-like": dict(lr_high=0.95, lr_safe=0.80),
    "complacent": dict(lr_high=1.12, lr_safe=1.00),
}


def run_setting(name: str, seed: int = 0):
    cluster, __, steady = run_stepped_rgame(seed, lr_low=0.3, lr_low_target=0.5, **SETTINGS[name])
    lb = cluster.balancer
    overload_seconds = sum(
        1 for __, ratios in lb.load_history if ratios and max(ratios.values()) > 1.0
    )
    return {
        "rebalances": len(lb.rebalance_times()),
        "servers": cluster.server_count,
        "overload_seconds": overload_seconds,
        "steady_rt_ms": steady * 1000 if steady else float("nan"),
    }


def test_bench_ablation_lr_thresholds(benchmark):
    results = run_once(
        benchmark, lambda: {name: run_setting(name) for name in SETTINGS}
    )

    rows = [
        [name, r["rebalances"], r["servers"], r["overload_seconds"],
         f"{r['steady_rt_ms']:.0f}"]
        for name, r in results.items()
    ]
    print()
    print("Ablation -- LR^high / LR^safe sensitivity (150 players)")
    print(table(
        ["setting", "rebalances", "servers", "overloaded s", "steady rt ms"], rows
    ))

    eager, paper, complacent = (
        results["eager"], results["paper-like"], results["complacent"]
    )
    # eager reacts earliest: overload time no worse than complacent's
    assert eager["overload_seconds"] <= complacent["overload_seconds"]
    # complacent tolerates the most sustained overload
    assert complacent["overload_seconds"] >= paper["overload_seconds"]
    # eager and paper-like settings deliver a near-playable steady state;
    # complacent saves servers/rebalances but lets latency degrade badly --
    # running thresholds at the failure regime (LR^high ~ 1.12, where the
    # paper observed Redis *fails*) is exactly what the safety margin of
    # the defaults buys protection from.
    assert eager["steady_rt_ms"] < 250
    assert paper["steady_rt_ms"] < 250
    assert complacent["steady_rt_ms"] >= paper["steady_rt_ms"]
    assert complacent["servers"] <= eager["servers"]

    benchmark.extra_info["results"] = {
        k: {m: round(v, 1) for m, v in r.items()} for k, r in results.items()
    }
