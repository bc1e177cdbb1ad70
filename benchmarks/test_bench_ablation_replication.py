"""Ablation: Algorithm 1's scheme choice vs the opposite scheme.

The paper motivates two replication schemes because each fits one overload
profile (section II-B).  This ablation forces each scheme onto each
workload and shows the cross-assignments fail:

* a publication-heavy channel (many publishers, one subscriber) under
  *all-publishers* still funnels the whole flow through every replica's
  single subscriber connection -- replication buys little;
* a subscriber-heavy channel (one publisher, many subscribers) under
  *all-subscribers* still makes every server deliver to every subscriber
  -- the fan-out work is not divided.
"""

from benchmarks.conftest import run_once
from repro.core.plan import ReplicationMode
from repro.experiments.experiment1 import run_point
from repro.experiments.report import table

#: workload name -> (Experiment 1 profile, clients)
WORKLOADS = {"fanout": ("fig4a", 700), "fanin": ("fig4b", 500)}


def run_cell(workload, mode):
    """One (workload, scheme) cell of the ablation matrix: mean latency
    (``inf`` when nothing arrived) and delivery rate."""
    figure, clients = WORKLOADS[workload]
    point = run_point(figure, clients, mode, measure_s=10.0)
    mean = point.mean_latency_s
    return (float("inf") if mean is None else mean), point.delivery_rate


def test_bench_ablation_scheme_choice(benchmark):
    def run_matrix():
        results = {}
        for workload in WORKLOADS:
            for mode in (
                ReplicationMode.SINGLE,
                ReplicationMode.ALL_PUBLISHERS,
                ReplicationMode.ALL_SUBSCRIBERS,
            ):
                results[(workload, mode)] = run_cell(workload, mode)
        return results

    results = run_once(benchmark, run_matrix)

    rows = []
    for (workload, mode), (mean, rate) in results.items():
        rows.append([workload, mode.value, f"{mean * 1000:.1f}", f"{rate:.2f}"])
    print()
    print("Ablation -- replication scheme vs workload profile")
    print(table(["workload", "scheme", "mean ms", "delivery"], rows))

    # fan-out (700 subscribers): all-publishers is the right scheme
    fo_right = results[("fanout", ReplicationMode.ALL_PUBLISHERS)]
    fo_wrong = results[("fanout", ReplicationMode.ALL_SUBSCRIBERS)]
    fo_none = results[("fanout", ReplicationMode.SINGLE)]
    assert fo_right[0] < 0.25
    # The wrong scheme serializes each publication's whole fan-out on one
    # server (all-publishers splits it 3 ways in parallel), costing a
    # clear latency premium even when throughput still fits.
    assert fo_wrong[0] > 1.5 * fo_right[0]
    assert fo_none[0] > 2 * fo_right[0]

    # fan-in (500 publishers): all-subscribers is the right scheme
    fi_right = results[("fanin", ReplicationMode.ALL_SUBSCRIBERS)]
    fi_wrong = results[("fanin", ReplicationMode.ALL_PUBLISHERS)]
    fi_none = results[("fanin", ReplicationMode.SINGLE)]
    assert fi_right[1] > 0.99
    assert fi_wrong[1] < 0.95  # every replica still floods the one subscriber
    assert fi_none[1] < 0.95

    benchmark.extra_info["matrix"] = {
        f"{w}/{m.value}": [round(mean * 1000, 1), round(rate, 3)]
        for (w, m), (mean, rate) in results.items()
    }
