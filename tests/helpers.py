"""Shared test utilities, hoisted out of the per-suite conftests.

Used by ``tests/`` (protocol and unit suites), ``tests/check/`` (the
property-testing harness) and ``benchmarks/`` alike, so the one
definition of "a deterministic cluster for tests" lives here instead of
being copy-pasted per suite.
"""

from __future__ import annotations

import cProfile
import os
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.broker.commands import PingCmd, PongReply, SubscribeAck, SubscribeCmd
from repro.broker.config import BrokerConfig
from repro.core.client import DynamothClient
from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.metrics import ClusterLoadView
from repro.core.plan import Plan
from repro.core.policy import PaperPolicy, PolicyContext
from repro.core.rebalance import RebalanceDecision
from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


def make_static_cluster(
    *,
    seed: int = 0,
    initial_servers: int = 3,
    broker_config: Optional[BrokerConfig] = None,
    config: Optional[DynamothConfig] = None,
) -> DynamothCluster:
    """A cluster without a balancer, for protocol-level tests."""
    return DynamothCluster(
        seed=seed,
        initial_servers=initial_servers,
        balancer=BALANCER_NONE,
        broker_config=broker_config,
        config=config,
    )


def python_calls_by_function(run: Callable[[], object]) -> Dict[Tuple[str, int, str], int]:
    """Python-level calls made by ``run()``, per ``(file, line, name)``
    (``/`` paths).

    Counted as the perf ledger's counting pass counts: no built-ins, and
    only functions with a source file -- the wire dataclasses'
    ``__init__``s, compiled from ``<string>``, share one profile row and
    are left out.
    """
    profiler = cProfile.Profile(subcalls=False, builtins=False)
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    profiler.create_stats()
    return {
        (filename.replace(os.sep, "/"), line, name): ncalls
        for (filename, line, name), (_cc, ncalls, *_rest) in profiler.stats.items()
        if not filename.startswith(("<", "~"))
    }


def python_calls_by_file(run: Callable[[], object]) -> Dict[str, int]:
    """:func:`python_calls_by_function`, summed per source file."""
    calls: Dict[str, int] = {}
    for (path, _line, _name), ncalls in python_calls_by_function(run).items():
        calls[path] = calls.get(path, 0) + ncalls
    return calls


class RecordingWire:
    """Transport stand-in for a bare client: the test plays the servers.

    Every send is recorded as ``(time, dst, message)``; servers named in
    ``live`` answer pings ``pong_delay`` later (10 ms unless set) and
    acknowledge SUBSCRIBEs 10 ms later.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.client: Optional[DynamothClient] = None
        self.sent: List[Tuple[float, str, object]] = []
        self.live: Set[str] = set()
        self.pong_delay = 0.01

    def send(self, src: str, dst: str, message: object, size: int) -> None:
        self.sent.append((self.sim.now, dst, message))
        if dst not in self.live:
            return
        if isinstance(message, PingCmd):
            pong = PongReply(dst, message.stamp)
            self.sim.schedule(self.pong_delay, self.client.receive, pong, dst)
        elif isinstance(message, SubscribeCmd):
            ack = SubscribeAck(message.channel, dst)
            self.sim.schedule(0.01, self.client.receive, ack, dst)

    def dead_letter(self, message: object, src: str) -> None:
        """What ``Actor.shutdown()`` points the client's ``receive`` at."""

    def messages(self, kind: type) -> list:
        return [message for _, _, message in self.sent if isinstance(message, kind)]

    def times(self, kind: type, dst: Optional[str] = None) -> List[float]:
        return [
            t for t, to, message in self.sent
            if isinstance(message, kind) and dst in (None, to)
        ]


def make_bare_client(
    node_id: str = "c", servers: Sequence[str] = ("s1",), **kwargs
) -> Tuple[Simulator, RecordingWire, DynamothClient]:
    """A client on a bare simulator, wired to a :class:`RecordingWire`."""
    sim = Simulator()
    wire = RecordingWire(sim)
    ring = ConsistentHashRing(list(servers))
    client = DynamothClient(sim, node_id, ring, RngRegistry(0), **kwargs)
    client.transport = wire
    wire.client = client
    return sim, wire, client


def crash_clusters_at(monkeypatch, t: float) -> Dict[str, int]:
    """Make every cluster built from now on raise from a callback at ``t``.

    Stands in for a workload callback that fails mid-run.  The returned
    dict's ``"emitted"`` is the number of events the cluster's streaming
    sink had been handed when the callback raised.
    """
    seen: Dict[str, int] = {}
    original = DynamothCluster.__init__

    def crashing_init(cluster, *args, **kwargs):
        original(cluster, *args, **kwargs)

        def boom():
            seen["emitted"] = cluster.tracer.sink.events_written
            raise RuntimeError("workload callback failed")

        cluster.sim.schedule_at(t, boom)

    monkeypatch.setattr(DynamothCluster, "__init__", crashing_init)
    return seen


def make_fixed_transport(
    sim: Simulator,
    rng: Optional[Random] = None,
    *,
    lan_s: float = 0.001,
    wan_s: float = 0.02,
) -> Transport:
    """A transport with deterministic fixed latencies (tests only)."""
    return Transport(
        sim,
        rng if rng is not None else Random(1234),
        lan_model=FixedLatency(lan_s),
        wan_model=FixedLatency(wan_s),
    )


class SenderNic:
    """One sender's NIC clock, driven through ``Transport.send`` as a
    node's messages drive it.  The destination is shut down, so a send
    charges the NIC and schedules nothing."""

    def __init__(self, capacity_bps: Optional[float]) -> None:
        self.sim = Simulator()
        self.net = make_fixed_transport(self.sim)
        self.net.register(Actor(self.sim, "src", is_infra=True), capacity_bps)
        sink = Actor(self.sim, "sink", is_infra=True)
        self.net.register(sink)
        sink.shutdown()
        self.port = self.net.port("src")

    def send_at(self, at: float, size_bytes: int) -> float:
        """Hand ``size_bytes`` to the NIC at ``at`` (or now, if the clock
        is past it) and return the transmit completion."""
        if at > self.sim.now:
            self.sim.run_until(at)
        return self.net.send("src", "sink", None, size_bytes)[0]


def paper_decision(
    plan: Plan,
    view: ClusterLoadView,
    config: DynamothConfig,
    active_servers: Sequence[str],
    bootstrap_servers: Iterable[str],
    default_nominal_bps: float,
    *,
    allow_scale_down: bool = True,
) -> RebalanceDecision:
    """The ``paper`` policy's decision (Algorithm 1 then Algorithm 2 or
    the low-load drain) on one hand-built load picture."""
    ctx = PolicyContext(
        now=0.0,
        plan=plan,
        view=view,
        config=config,
        active_servers=tuple(active_servers),
        bootstrap_servers=frozenset(bootstrap_servers),
        default_nominal_bps=default_nominal_bps,
        allow_scale_down=allow_scale_down,
    )
    return PaperPolicy(config).decide(ctx)


def run_once(benchmark, fn):
    """Benchmark ``fn`` with a single round/iteration and return its result.

    Every benchmark regenerates one table/figure of the paper; a "round"
    is a full experiment, so the value is the printed figure data and the
    recorded extra_info, not sub-millisecond timing statistics.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
