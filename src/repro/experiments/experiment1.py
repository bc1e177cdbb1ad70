"""Experiment 1: channel-level scalability (Figure 4a / 4b).

Micro-benchmarks on one deliberately overloaded channel, comparing a
non-replicated configuration against 3-server channel replication -- the
exact setup of section V-C:

* **Figure 4a ("all publishers")**: up to 800 subscribers on channel ``c``,
  one publisher sending 10 publications/second.  Without replication the
  response time keeps growing with the subscriber count and blows up past
  ~500 subscribers (the server core cannot sustain the fan-out work); with
  the all-publishers scheme over 3 servers each server only serves a third
  of the subscribers and response times stay low.

* **Figure 4b ("all subscribers")**: up to 800 publishers sending 10
  publications/second each, one subscriber.  Without replication delivery
  fails past ~200 publishers -- the subscriber's Redis output buffer
  overflows and the connection is killed; with the all-subscribers scheme
  over 3 servers each connection carries a third of the flow and the
  system survives to roughly 3x the publishers.

As in the paper, replication is configured statically for the
micro-benchmarks (no load balancer is running).  The two figures are two
rows of :data:`PROFILES`; :func:`run_point` measures one (profile, scheme,
client count) cell of the grid and :func:`run_figure4` sweeps a figure's
two series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broker.config import BrokerConfig
from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.obs.trace import Tracer
from repro.workload.microbench import FanInWorkload, FanOutWorkload

CHANNEL = "hotspot"


def fanout_broker_config() -> BrokerConfig:
    """Broker model for Figure 4a: the CPU fan-out cost is the bottleneck.

    10 msg/s x 500 subscribers x 200 us/delivery = 100% of one core, which
    places the non-replicated knee at ~500 subscribers as in the paper.
    """
    return BrokerConfig(
        nominal_egress_bps=5_000_000.0,
        cpu_per_publish_s=50e-6,
        cpu_per_delivery_s=200e-6,
        per_connection_bps=None,
        output_buffer_limit_bytes=64 * 1_048_576,
    )


def fanin_broker_config() -> BrokerConfig:
    """Broker model for Figure 4b: the subscriber connection is the bottleneck.

    A single connection drains ~600 KB/s (~2000 messages/s at 298 B on the
    wire), so ~200 publishers saturate it without replication, and ~600
    with 3-server replication -- the paper's observed limits.
    """
    return BrokerConfig(
        nominal_egress_bps=5_000_000.0,
        cpu_per_publish_s=10e-6,
        cpu_per_delivery_s=10e-6,
        per_connection_bps=600_000.0,
        output_buffer_limit_bytes=1_048_576,
    )


@dataclass(frozen=True)
class ReplicationPoint:
    """One measured cell of the Experiment 1 grid."""

    clients: int  # subscribers (4a) or publishers (4b)
    replicated: bool
    mean_latency_s: Optional[float]
    p95_latency_s: Optional[float]
    delivery_rate: float
    killed_connections: int


@dataclass
class Experiment1Result:
    figure: str
    points: List[ReplicationPoint] = field(default_factory=list)

    def series(self, replicated: bool) -> List[ReplicationPoint]:
        return [p for p in self.points if p.replicated == replicated]


@dataclass(frozen=True)
class Profile:
    """One overload profile of Figure 4: its broker model, the replication
    scheme that fits it (section II-B), its workload and its table title."""

    broker_config: Callable[[], BrokerConfig]
    scheme: ReplicationMode
    workload: Callable[[DynamothCluster, str, int], FanOutWorkload | FanInWorkload]
    title: str


#: figure name -> overload profile; the clients swept are the workload's
#: subscribers (4a) or publishers (4b)
PROFILES: Dict[str, Profile] = {
    "fig4a": Profile(
        fanout_broker_config,
        ReplicationMode.ALL_PUBLISHERS,
        FanOutWorkload,
        "Figure 4a -- all-publishers replication",
    ),
    "fig4b": Profile(
        fanin_broker_config,
        ReplicationMode.ALL_SUBSCRIBERS,
        FanInWorkload,
        "Figure 4b -- all-subscribers replication",
    ),
}


def run_point(
    figure: str,
    clients: int,
    mode: ReplicationMode,
    *,
    seed: int = 0,
    warmup_s: float = 5.0,
    measure_s: float = 15.0,
    tracer: Optional[Tracer] = None,
) -> ReplicationPoint:
    """Measure ``figure``'s profile at ``clients`` with ``CHANNEL`` mapped
    under ``mode``: ``SINGLE`` on its ring home, any other scheme on all
    three servers.  Any profile takes any scheme, so the cells off the
    figure's own scheme run here too."""
    profile = PROFILES[figure]
    cluster = DynamothCluster(
        seed=seed,
        config=DynamothConfig(max_servers=3, min_servers=3),
        broker_config=profile.broker_config(),
        initial_servers=3,
        balancer=BALANCER_NONE,
        tracer=tracer,
    )
    if mode is ReplicationMode.SINGLE:
        servers: Tuple[str, ...] = (cluster.plan.ring.lookup(CHANNEL),)
    else:
        servers = tuple(sorted(cluster.servers))
    cluster.set_static_mapping(CHANNEL, ChannelMapping(mode, servers))
    workload = profile.workload(cluster, CHANNEL, clients)
    cluster.run_until(1.0)  # let subscriptions land
    workload.start(measure_from=1.0 + warmup_s)
    cluster.run_until(1.0 + warmup_s + measure_s)
    workload.stop()
    cluster.run_for(0.5)  # drain in-flight deliveries

    latencies = workload.collector.latencies()
    mean = sum(latencies) / len(latencies) if latencies else None
    p95 = sorted(latencies)[int(0.95 * (len(latencies) - 1))] if latencies else None
    killed = sum(s.killed_connections for s in cluster.servers.values())
    replicated = mode is not ReplicationMode.SINGLE
    return ReplicationPoint(clients, replicated, mean, p95, workload.delivery_rate(), killed)


DEFAULT_LEVELS = (100, 200, 300, 400, 500, 600, 700, 800)


def run_figure4(
    figure: str,
    levels: Sequence[int] = DEFAULT_LEVELS,
    *,
    seed: int = 0,
    measure_s: float = 15.0,
    tracer: Optional[Tracer] = None,
) -> Experiment1Result:
    """The full sweep of ``figure``: no replication, then the profile's
    scheme, over all levels."""
    result = Experiment1Result(figure)
    for mode in (ReplicationMode.SINGLE, PROFILES[figure].scheme):
        for level in levels:
            result.points.append(
                run_point(figure, level, mode, seed=seed, measure_s=measure_s, tracer=tracer)
            )
    return result
