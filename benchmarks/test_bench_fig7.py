"""Figure 7 -- elasticity under a fluctuating player population.

Paper setup (Experiment 3): inject ~800 players step by step, remove 600,
then add back to almost 600; Dynamoth balancer with scale-up *and*
scale-down enabled.

Paper shapes:
* the server pool grows during the climbs and shrinks (with a delay --
  scale-down is lower priority) after the drop;
* high-load rebalances cause small short latency spikes, scale-down
  rebalances cause none.
"""

from benchmarks.conftest import run_once
from repro.experiments.report import render_figure7
from repro.experiments.run import SPECS, run

#: the run ``python -m repro.experiments fig7`` makes
BENCH_SPEC = SPECS["fig7"]


def test_bench_fig7_elasticity(benchmark):
    result = run_once(benchmark, lambda: run(BENCH_SPEC))
    print()
    print(render_figure7(result))

    # breakpoint times: start, peak 1 reached / left, trough reached / left,
    # peak 2 reached / held until
    times = [t for t, __ in BENCH_SPEC.population]
    peak1_end, drop_complete, trough_end, peak2_start, peak2_end = times[2:]
    # servers were rented during the first climb
    assert result.server_count_at(peak1_end) > BENCH_SPEC.initial_servers

    # ... and released after the drop (the paper notes "an observable
    # delay between the time when the load decreases and the servers are
    # removed")
    assert result.scaled_down()
    decommissions = [t for t, k, __ in result.balancer_events if k == "decommission"]
    # servers are only released once the population decline has begun
    assert decommissions and min(decommissions) > peak1_end

    # ... and rented again for the second climb
    peak2_time = (peak2_start + peak2_end) / 2
    trough_servers = min(
        int(v)
        for t, v in result.server_series()
        if (drop_complete + trough_end) / 2 <= t <= trough_end
    )
    assert result.server_count_at(peak2_time) >= trough_servers

    # response time during the trough plateau is healthy
    trough_rt = result.response_times.window_mean(drop_complete + 20, trough_end)
    assert trough_rt is not None and trough_rt < 0.150

    benchmark.extra_info["peak_servers"] = result.peak_server_count()
    benchmark.extra_info["decommissions"] = len(decommissions)
    benchmark.extra_info["rebalances"] = len(result.rebalance_times)
