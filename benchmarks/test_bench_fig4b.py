"""Figure 4b -- "all subscribers" channel replication micro-benchmark.

Paper setup: one channel, one subscriber, 100..800 publishers at 10 msg/s
each; non-replicated vs 3-server all-subscribers replication.

Paper shape: without replication, delivery fails past ~200 publishers --
the subscriber's output buffer overflows and Redis kills the connection;
with 3-server replication each connection carries a third of the flow and
the system survives to nearly 600 publishers.
"""

from benchmarks.conftest import run_once
from repro.experiments.experiment1 import DEFAULT_LEVELS, PROFILES, run_figure4
from repro.experiments.report import render_figure4


def test_bench_fig4b(benchmark):
    result = run_once(benchmark, lambda: run_figure4("fig4b", DEFAULT_LEVELS, measure_s=10.0))
    print()
    print(render_figure4(result, PROFILES["fig4b"].title))

    non_rep = {p.clients: p for p in result.series(False)}
    rep = {p.clients: p for p in result.series(True)}

    # paper shape 1: both fine at 100 publishers
    assert non_rep[100].delivery_rate > 0.99
    assert rep[100].delivery_rate > 0.99
    # paper shape 2: non-replicated delivery fails past ~200 publishers
    assert non_rep[300].delivery_rate < 0.95
    assert non_rep[300].killed_connections >= 1
    assert non_rep[800].delivery_rate < 0.7
    # paper shape 3: replication survives to ~600
    assert rep[500].delivery_rate > 0.99
    assert rep[500].killed_connections == 0
    # paper shape 4: replication too has a (3x higher) limit
    assert rep[800].delivery_rate < 1.0 or rep[800].mean_latency_s > 0.3

    benchmark.extra_info["non_replicated_delivery"] = {
        n: round(p.delivery_rate, 3) for n, p in non_rep.items()
    }
    benchmark.extra_info["replicated_delivery"] = {
        n: round(p.delivery_rate, 3) for n, p in rep.items()
    }
