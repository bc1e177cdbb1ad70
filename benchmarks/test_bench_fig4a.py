"""Figure 4a -- "all publishers" channel replication micro-benchmark.

Paper setup: one channel, one publisher at 10 msg/s, 100..800 subscribers;
non-replicated vs 3-server all-publishers replication.

Paper shape: the non-replicated response time grows with the subscriber
count and collapses past ~500 subscribers (CPU cannot sustain the
fan-out); the replicated configuration stays low throughout.
"""

from benchmarks.conftest import run_once
from repro.experiments.experiment1 import DEFAULT_LEVELS, PROFILES, run_figure4
from repro.experiments.report import render_figure4


def test_bench_fig4a(benchmark):
    result = run_once(benchmark, lambda: run_figure4("fig4a", DEFAULT_LEVELS, measure_s=10.0))
    print()
    print(render_figure4(result, PROFILES["fig4a"].title))

    non_rep = {p.clients: p for p in result.series(False)}
    rep = {p.clients: p for p in result.series(True)}

    # paper shape 1: similar performance at low fan-out
    assert non_rep[100].mean_latency_s < 0.2
    assert rep[100].mean_latency_s < 0.2
    # paper shape 2: non-replicated degrades monotonically toward the knee
    assert non_rep[500].mean_latency_s > non_rep[100].mean_latency_s
    # paper shape 3: past ~500 subscribers the single server collapses
    assert non_rep[800].mean_latency_s > 10 * non_rep[400].mean_latency_s
    # paper shape 4: replication keeps response time low to 800
    assert rep[800].mean_latency_s < 0.25
    assert rep[800].delivery_rate > 0.99

    benchmark.extra_info["non_replicated_ms"] = {
        n: round(p.mean_latency_s * 1000, 1) for n, p in non_rep.items()
    }
    benchmark.extra_info["replicated_ms"] = {
        n: round(p.mean_latency_s * 1000, 1) for n, p in rep.items()
    }
