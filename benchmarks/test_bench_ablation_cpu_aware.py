"""Ablation: CPU-aware load balancing (the paper's future-work extension).

The paper's balancer watches only egress bandwidth, because on their
hardware "the outgoing bandwidth of the pub/sub servers got saturated much
more quickly than the CPU".  On cloud VMs with skinny virtual CPUs that
assumption flips; the paper's future work proposes "integrat[ing] CPU load
into our load balancing algorithms".

This benchmark builds a CPU-bound cluster (fast NIC, slow per-delivery
processing) and runs the identical workload with the extension off and on:

* blind (paper default): the NIC looks idle, no rebalancing happens, one
  core saturates, latency explodes;
* CPU-aware: load ratios take ``max(egress ratio, cpu utilization)``, the
  hot channels are spread, latency stays low.
"""

from benchmarks.conftest import run_once
from repro.broker.config import BrokerConfig
from repro.core.cluster import DynamothCluster
from repro.core.config import DynamothConfig
from repro.experiments.records import BucketedStat
from repro.experiments.report import table
from repro.sim.timers import PeriodicTask


def run_policy(cpu_aware: bool, seed: int = 4):
    config = DynamothConfig(
        max_servers=4,
        min_servers=2,
        t_wait_s=5.0,
        spawn_delay_s=2.0,
        cpu_aware_balancing=cpu_aware,
        subscriber_threshold=10_000.0,
        publication_threshold=1e9,
    )
    broker = BrokerConfig(
        nominal_egress_bps=50_000_000.0,
        cpu_per_delivery_s=400e-6,
        cpu_per_publish_s=100e-6,
        per_connection_bps=None,
    )
    cluster = DynamothCluster(
        seed=seed, config=config, broker_config=broker, initial_servers=2
    )
    rtt = BucketedStat()
    home = cluster.plan.ring.lookup("cpu0")
    second = next(
        f"cpu{i}" for i in range(1, 200) if cluster.plan.ring.lookup(f"cpu{i}") == home
    )
    for prefix, channel in (("w0", "cpu0"), ("w1", second)):
        for i in range(15):
            s = cluster.create_client(f"{prefix}-s{i}")
            s.subscribe(channel, lambda *a: None)
        pub = cluster.create_client(f"{prefix}-pub")
        pub.on_response_time = lambda value, now: rtt.add(now, value)
        pub.subscribe(channel, lambda *a: None)
        task = PeriodicTask(
            cluster.sim, 0.01, lambda now, p=pub, c=channel: p.publish(c, "x", 50)
        )
        task.start()
    cluster.run_until(60.0)
    lb = cluster.balancer
    cpus = {s: lb.view.cpu_utilization(s) for s in lb.active_servers}
    steady = rtt.window_mean(40, 60)
    return {
        "plan_version": lb.plan.version,
        "max_cpu": max(cpus.values()),
        "steady_rt_ms": steady * 1000 if steady else float("inf"),
    }


def test_bench_ablation_cpu_aware(benchmark):
    blind, aware = run_once(
        benchmark, lambda: (run_policy(False), run_policy(True))
    )

    rows = [
        ["blind (paper default)", blind["plan_version"],
         f"{blind['max_cpu']:.2f}", f"{blind['steady_rt_ms']:.0f}"],
        ["cpu-aware (extension)", aware["plan_version"],
         f"{aware['max_cpu']:.2f}", f"{aware['steady_rt_ms']:.0f}"],
    ]
    print()
    print("Ablation -- CPU-aware balancing on a CPU-bound cluster")
    print(table(["policy", "plan version", "max cpu util", "steady rt ms"], rows))

    assert blind["plan_version"] == 0          # NIC-only view: no action
    assert blind["max_cpu"] > 1.0              # a core saturates
    assert aware["plan_version"] > 0           # extension reacts
    assert aware["max_cpu"] < 1.0              # load spread below a core
    assert aware["steady_rt_ms"] < blind["steady_rt_ms"] / 3

    benchmark.extra_info["blind_rt_ms"] = round(blind["steady_rt_ms"], 1)
    benchmark.extra_info["aware_rt_ms"] = round(aware["steady_rt_ms"], 1)
