"""Figures 5a/5b/5c and the headline claim -- client scalability.

Paper setup (Experiment 2): RGame players join over time, 3 state updates
per second each, up to 8 pub/sub servers; run once under the Dynamoth load
balancer and once under consistent hashing.

Paper shapes:
* players ramp up (Fig 5a) while total message throughput grows (Fig 5b);
* Dynamoth keeps average response time near its baseline -- with short
  spikes at rebalances -- far beyond the point where consistent hashing
  deteriorates (Fig 5c);
* headline: Dynamoth sustains ~60% more players under the 150 ms bound
  (1000 vs 625 in the paper).  The reproduction runs a ~1/2-scale world
  (620 players max, proportionally smaller per-server bandwidth) and
  checks direction and a substantial gap rather than the exact 60%.

The Dynamoth and consistent-hashing runs are cached at module level so
Fig 5, Fig 6 and the headline benches share them instead of re-simulating.
"""

from functools import lru_cache

from benchmarks.conftest import run_once
from repro.experiments.report import headline_gain, render_figure5, render_headline
from repro.experiments.run import SPECS, run, with_policy

#: the run ``python -m repro.experiments fig5`` makes
BENCH_SPEC = SPECS["fig5"]


@lru_cache(maxsize=None)
def dynamoth_run():
    return run(BENCH_SPEC)


@lru_cache(maxsize=None)
def hashing_run():
    return run(with_policy(BENCH_SPEC, "consistent_hashing"))


def test_bench_fig5_dynamoth(benchmark):
    """Fig 5a/5b/5c, Dynamoth side (the expensive simulation)."""
    result = run_once(benchmark, dynamoth_run)

    # Fig 5a: the ramp was followed
    assert result.series.max("population") >= BENCH_SPEC.population[-1][1] * 0.95
    # Fig 5b: servers scaled out to the full pool under load
    assert result.final_server_count == BENCH_SPEC.config.max_servers
    # Fig 5c: response time at moderate load sits near the WAN baseline
    # in most windows ("small spikes ... of short duration" at rebalance
    # points are the paper's own observation)
    windows = [
        result.response_times.window_mean(t0, t0 + 10.0) for t0 in range(100, 200, 10)
    ]
    windows = [w for w in windows if w is not None]
    healthy = sum(1 for w in windows if w < 0.150)
    assert windows and healthy >= len(windows) * 0.6
    # conservative pool use: servers reused before spawning (rebalances
    # outnumber spawn events)
    spawns = sum(1 for __, k, __d in result.balancer_events if k == "spawn-request")
    assert len(result.rebalance_times) > spawns

    benchmark.extra_info["max_sustainable_players"] = result.max_sustainable_players()
    benchmark.extra_info["servers"] = result.final_server_count


def test_bench_fig5_consistent_hashing(benchmark):
    """Fig 5b/5c, consistent-hashing side."""
    result = run_once(benchmark, hashing_run)
    print()
    print(render_figure5(dynamoth_run(), result))

    assert result.final_server_count == BENCH_SPEC.config.max_servers
    # the paper's observation: CH spawns a server on *every* rebalance
    spawns = [t for t, k, __ in result.balancer_events if k == "spawn-request"]
    assert len(result.rebalance_times) == len(spawns)

    benchmark.extra_info["max_sustainable_players"] = result.max_sustainable_players()


def _imbalance(result, t_lo=150.0, t_hi=350.0):
    """Mean busiest-server/average load-ratio over the mid-ramp window.

    This is the *mechanism* behind the paper's headline: consistent
    hashing "can not take individual server loads into account", so its
    busiest server runs far hotter than its average; Dynamoth flattens
    the distribution.  Unlike the sustainable-player knee (which is
    chaos-sensitive at our scale), this ratio separates the two systems
    robustly run after run.
    """
    samples = []
    for t, ratios in result.load_history:
        if t_lo <= t <= t_hi and len(ratios) >= 2:
            values = list(ratios.values())
            avg = sum(values) / len(values)
            if avg > 0.05:
                samples.append(max(values) / avg)
    return sum(samples) / len(samples) if samples else float("nan")


def test_bench_headline_60_percent(benchmark):
    """The paper's headline claim, via its mechanism.

    The paper reports Dynamoth sustaining ~60% more players than
    consistent hashing.  At our ~1/2 scale the *knee position* of a single
    run moves by +-15% with any perturbation (the macro simulation is
    chaotic), so the committed bench asserts the robust mechanism -- CH's
    busiest server runs far hotter relative to its average than
    Dynamoth's -- and reports the single-seed sustainable-player counts
    as informational output.  EXPERIMENTS.md discusses the measured range.
    """
    dynamoth, hashing = run_once(benchmark, lambda: (dynamoth_run(), hashing_run()))
    print()
    print(render_headline(dynamoth, hashing))

    dyn_imbalance = _imbalance(dynamoth)
    ch_imbalance = _imbalance(hashing)
    print(
        f"load imbalance (busiest/average LR, mid-ramp): "
        f"dynamoth={dyn_imbalance:.2f}  consistent-hashing={ch_imbalance:.2f}"
    )

    # the mechanism: Dynamoth keeps the busiest server close to the
    # average; consistent hashing leaves a pronounced hotspot
    assert dyn_imbalance < ch_imbalance
    assert dyn_imbalance < 1.6
    assert ch_imbalance > dyn_imbalance * 1.15

    benchmark.extra_info["dynamoth_players"] = dynamoth.max_sustainable_players()
    benchmark.extra_info["ch_players"] = hashing.max_sustainable_players()
    benchmark.extra_info["improvement_single_seed"] = round(
        headline_gain(dynamoth, hashing), 3
    )
    benchmark.extra_info["dyn_imbalance"] = round(dyn_imbalance, 3)
    benchmark.extra_info["ch_imbalance"] = round(ch_imbalance, 3)
