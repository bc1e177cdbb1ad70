"""Figure 6 -- pub/sub server load ratios under the Dynamoth balancer.

Paper shapes: the balancer keeps the *average* load ratio below 1 until
the system as a whole saturates, and the *busiest* server's ratio below 1
for most of the experiment; rebalance points coincide with load peaks.

Reuses the cached Experiment 2 Dynamoth run from ``test_bench_fig5``.
"""

from benchmarks.conftest import run_once
from benchmarks.test_bench_fig5 import dynamoth_run
from repro.experiments.report import render_figure6


def test_bench_fig6_load_ratios(benchmark):
    result = run_once(benchmark, dynamoth_run)
    print()
    print(render_figure6(result))

    series = result.load_ratio_series()
    assert series, "load history must be recorded"

    sustainable = result.max_sustainable_players()
    pop_at = dict((int(t), v) for t, v in result.population_series())

    # While the system was comfortably below its sustainable population,
    # the average LR stayed in the safe band (paper: "maintain the average
    # load below 1 until the system as a whole becomes overloaded").  The
    # last ~20% before the knee is the congestion ramp, where the paper's
    # own curves already brush 1.
    pre_saturation = [
        (t, avg, busy)
        for t, avg, busy in series
        if pop_at.get(int(t), 0) < 0.8 * sustainable and t > 30
    ]
    assert pre_saturation
    avg_values = [avg for __, avg, __b in pre_saturation]
    assert sum(avg_values) / len(avg_values) < 1.0

    # The busiest server is kept below the failure regime (LR ~1.15) for
    # most of the pre-saturation run (the paper: "maintain the load ratio
    # of the busiest server below 1 for most of the experiment"; brief
    # excursions around rebalance points are expected).
    busy_ok = sum(1 for __, __a, busy in pre_saturation if busy < 1.15)
    assert busy_ok / len(pre_saturation) > 0.80
    busy_safe = sum(1 for __, __a, busy in pre_saturation if busy < 1.0)
    assert busy_safe / len(pre_saturation) > 0.50

    benchmark.extra_info["mean_avg_lr_pre_saturation"] = round(
        sum(avg_values) / len(avg_values), 3
    )
    benchmark.extra_info["rebalances"] = len(result.rebalance_times)
