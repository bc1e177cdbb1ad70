"""The four ledger workloads, built on the public ``repro`` API.

Each workload is a small object with three steps the child process times
separately: ``setup()`` (cluster and client construction, subscriptions
landing), ``run()`` (the measured phase) and ``collect()`` (exact results,
correctness checks and the counters read from public attributes).  The
``--seed`` reaches the program only through ``DynamothCluster(seed=...)``
and the generated inputs (publisher phases, payload sizes).

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
The sizes are what fits the benchmark's time cap on a 2-core host: about
three run-phase CPU seconds per repeat, five repeats and a counting pass
inside the half minute one invocation is allotted.
"""

from __future__ import annotations

import inspect
import math
import os
from array import array
from bisect import bisect_right
from random import Random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.broker.config import BrokerConfig
from repro.core.cluster import BALANCER_DYNAMOTH, BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.sim.timers import PeriodicTask

#: The paper's playability bound on response time, seconds.
SLA_S = 0.150
#: Smoothing window of the sustainability judgement (EXPERIMENTS.md), seconds.
SMOOTH_S = 10.0
#: The sampling hook fires once per this many executed events.
SAMPLE_EVERY = 2_000

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fanout_wide": dict(subscribers=10_000, rate=10.0, duration_s=6.0, payload=200),
        # Breakpoints of the population over time.  One server to begin
        # with and a ramp slow enough for the balancer to rent the second
        # and third ahead of need; a hold that lets the third settle; then
        # a scheduled jump far past what the full pool carries.
        "rgame_ramp": dict(
            tiles=6, rate=3.0, initial_servers=1, max_servers=3, egress=400_000.0,
            population=[(0, 40), (120, 160), (135, 160), (137, 400), (150, 400)],
        ),
        "reliable_lossy": dict(
            channels=60, subs=20, pubs=2, rate=5.0, duration_s=24.0, loss=0.2, drain_s=3.0,
        ),
        "traced_crash": dict(
            tiles=5, players=110, crash_at_s=10.0, duration_s=60.0, egress=1.5e6,
        ),
    },
    # Sub-second sizing for the self-test: same code paths, no claim on values.
    "tiny": {
        "fanout_wide": dict(subscribers=300, rate=10.0, duration_s=2.0, payload=200),
        "rgame_ramp": dict(
            tiles=3, rate=3.0, initial_servers=1, max_servers=2, egress=150_000.0,
            population=[(0, 10), (12, 30), (16, 30), (18, 90), (24, 90)],
        ),
        "reliable_lossy": dict(
            channels=4, subs=5, pubs=2, rate=5.0, duration_s=9.0, loss=0.2, drain_s=3.0,
        ),
        "traced_crash": dict(
            tiles=2, players=24, crash_at_s=5.0, duration_s=50.0, egress=250_000.0,
        ),
    },
}


def make_cluster(**kwargs: Any) -> DynamothCluster:
    """Build a cluster, passing the tuning knobs only while they exist.

    Later changes may delete ``scheduler`` / ``gc_managed`` (ROADMAP "one
    hot path") and may not edit this benchmark, so the signature decides.
    """
    params = inspect.signature(DynamothCluster.__init__).parameters
    if "scheduler" in params:
        kwargs["scheduler"] = "calendar"
    if "gc_managed" in params:
        kwargs["gc_managed"] = True
    return DynamothCluster(**kwargs)


def read(obj: Any, *path: str) -> Any:
    """``obj.a.b`` through public attributes; ``None`` once one is missing."""
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj() if callable(obj) else obj


def total(objects: Iterable[Any], name: str) -> Optional[float]:
    """Sum of one public counter; ``None`` when the attribute is gone."""
    values = [read(obj, name) for obj in objects]
    return None if any(value is None for value in values) else sum(values)


def percentile(ordered: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (exact, no bins)."""
    if not ordered:
        return None
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or not den:
        return None
    return num / den


def scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


class Probe:
    """Sampling-hook target: queue depths seen every ``SAMPLE_EVERY`` events.

    Installed through ``Simulator.set_sample_hook``, which fires on the
    executed-event counter and schedules nothing, so the event sequence of
    a probed run is the sequence of an unprobed one.
    """

    def __init__(self, cluster: DynamothCluster) -> None:
        self.cluster = cluster
        #: every server that was ever up, crashed ones too
        self.servers: Dict[str, Any] = dict(cluster.servers)
        self.pending_peak = 0
        self.egress_wait: List[float] = []
        self.cpu_backlog: List[float] = []
        set_hook = getattr(cluster.sim, "set_sample_hook", None)
        self.installed = set_hook is not None
        if set_hook is not None:
            set_hook(self, every=SAMPLE_EVERY)

    def __call__(self, now: float, events_processed: int) -> None:
        cluster = self.cluster
        pending = read(cluster.sim, "pending_count")
        if pending is not None and pending > self.pending_peak:
            self.pending_peak = pending
        for server_id, server in cluster.servers.items():
            self.servers[server_id] = server
            port = cluster.transport.port(server_id)
            if port is not None:
                self.egress_wait.append(port.queued_delay(now))
            self.cpu_backlog.append(server.cpu_backlog(now))

    def counts(self) -> Dict[str, Any]:
        if not self.installed:
            return {}
        return {
            "sim.kernel.pending_peak": self.pending_peak,
            "net.link.egress_wait_p99_ms": scaled(
                percentile(sorted(self.egress_wait), 99.0), 1e3
            ),
            "broker.server.cpu_backlog_p99_ms": scaled(
                percentile(sorted(self.cpu_backlog), 99.0), 1e3
            ),
        }


def cluster_counts(probe: Probe, deliveries: int) -> Dict[str, Any]:
    """Layer counters read from public attributes after the run."""
    cluster = probe.cluster
    sim, transport = cluster.sim, cluster.transport
    servers = list({**probe.servers, **cluster.servers}.values())
    sent = read(transport, "messages_sent")
    dropped = read(transport, "messages_dropped")
    hits = total(servers, "fanout_cache_hits")
    builds = total(servers, "fanout_cache_builds")
    reliability = [s.reliability for s in servers if read(s, "reliability") is not None]
    balancer = cluster.balancer
    counts: Dict[str, Any] = {
        "sim.kernel.compactions": read(sim, "compactions"),
        "net.transport.sends_per_delivery": ratio(sent, deliveries),
        "net.transport.drop_ratio": (
            None if sent is None or dropped is None else ratio(dropped, sent + dropped) or 0.0
        ),
        "net.transport.pair_states": read(transport, "pair_state_count"),
        "broker.server.fanout_mean": ratio(
            total(servers, "delivery_count"), total(servers, "publish_count")
        ),
        "broker.server.fanout_cache_hit_ratio": (
            None if hits is None or builds is None else ratio(hits, hits + builds)
        ),
        "broker.server.cpu_busy_ratio": ratio(
            total(servers, "cpu_time_total"), cluster.server_seconds()
        ),
        "broker.server.killed_connections": total(servers, "killed_connections"),
        "core.client.duplicates_suppressed": total(cluster.clients.values(), "duplicates"),
        "core.reliability.replayed_messages": total(reliability, "replayed_messages"),
        "core.reliability.unrecoverable_gaps": total(reliability, "unrecoverable_gaps"),
        "core.reliability.replay_bytes": total(reliability, "replayed_bytes"),
        "core.balancer.rebalances": (
            0 if balancer is None else len(read(balancer, "rebalance_times") or ())
        ),
    }
    counts.update(probe.counts())
    return counts


class LatencyLedger:
    """Subscriber-observed latencies plus what they are judged against."""

    def __init__(self) -> None:
        # Packed doubles: a million retained float objects would be a third
        # of fanout_wide's resident set and most of its cache misses.
        self.latencies = array("d")
        #: when each sample arrived; kept only where the population varies
        self.arrivals = array("d")

    def summary(self, expected: int) -> Dict[str, Any]:
        """The exact simulated-time end-to-end results.

        A delivery that never arrived misses the SLA; percentiles are over
        the deliveries that did arrive, with their count beside them.
        """
        delivered = len(self.latencies)
        ordered = sorted(self.latencies)
        on_time = bisect_right(ordered, SLA_S)
        return {
            "deliveries": delivered,
            "expected": expected,
            "latency_samples": delivered,
            "latency_p50_ms": scaled(percentile(ordered, 50.0), 1e3),
            "latency_p99_ms": scaled(percentile(ordered, 99.0), 1e3),
            "sla_met_ratio": ratio(float(on_time), float(expected)),
            "delivery_ratio": ratio(float(delivered), float(expected)),
        }

    def sustainable(self, population: Callable[[int], int]) -> int:
        """Largest population whose smoothed mean response met the SLA.

        ``experiment2.max_sustainable_players`` restated over raw samples:
        per-second buckets, a ``SMOOTH_S`` window centred on each second.
        """
        if not self.arrivals:
            return 0
        last = int(max(self.arrivals))
        sums = [0.0] * (last + 1)
        counts = [0] * (last + 1)
        for t, value in zip(self.arrivals, self.latencies):
            sums[int(t)] += value
            counts[int(t)] += 1
        half = int(SMOOTH_S / 2)
        best = 0
        for second in range(last + 1):
            lo, hi = max(0, second - half), min(last + 1, second + half)
            n = sum(counts[lo:hi])
            if n and sum(sums[lo:hi]) / n <= SLA_S:
                best = max(best, population(second))
        return best


class Workload:
    """What the child process drives: ``setup``, ``run``, ``collect``."""

    name = ""

    def __init__(self, seed: int, size: Dict[str, Any], out_dir: str) -> None:
        self.seed, self.size, self.out_dir = seed, size, out_dir
        self.ledger = LatencyLedger()
        #: The span pass replaces this to time the one callback the program
        #: is not handed through a wrapped function (RGame's ``rtt_sink``).
        self.wrap: Callable[[Any], Any] = lambda fn: fn

    def finish(
        self, probe: Probe, exact: Dict[str, Any], checks: Dict[str, bool], failed: int
    ) -> Dict[str, Any]:
        """The child's result: exact values, checks, counters."""
        cluster = probe.cluster
        # Application-level deliveries: what every per-delivery figure divides by.
        exact["app_deliveries"] = total(cluster.clients.values(), "delivered")
        exact["kernel_events"] = cluster.sim.events_processed
        exact["server_seconds"] = cluster.server_seconds()
        return {
            "exact": exact,
            "checks": checks,
            "counts": cluster_counts(probe, exact["app_deliveries"]),
            "failed": failed,
            "trace_bytes": 0,
        }


class FanoutWide(Workload):
    """One broker, one hot channel, a wide subscriber set, one publisher."""

    name = "fanout_wide"

    def setup(self) -> None:
        from repro.net.latency import KingLatencyModel

        size = self.size
        self.published = 0
        # One WAN sample is drawn per publication leg, not per subscriber,
        # so a run holds only ~2 x publications draws and its p99 is close
        # to the largest of them.  At King's default spread (sigma 0.55)
        # that moved p50 by 9% and p99 by 18% from seed to seed, at 0.2 by
        # 3% and 7%.  Sigma 0.05 keeps the sampled (non-fixed) transport
        # path and leaves the latency figures to what the system adds:
        # the egress queue of a 10 000-wide fan-out.
        self.cluster = cluster = make_cluster(
            seed=self.seed,
            config=DynamothConfig(max_servers=1, min_servers=1),
            broker_config=BrokerConfig(
                nominal_egress_bps=200_000_000.0,
                cpu_per_publish_s=5e-6,
                cpu_per_delivery_s=1e-6,
                per_connection_bps=None,
                output_buffer_limit_bytes=1 << 30,
            ),
            initial_servers=1,
            balancer=BALANCER_NONE,
            wan_model=KingLatencyModel(sigma=0.05),
        )
        self.probe = Probe(cluster)
        sim = cluster.sim
        latencies = self.ledger.latencies

        def on_delivery(channel: str, body: Any, envelope: Any) -> None:
            latencies.append(sim.now - envelope.sent_at)

        for i in range(size["subscribers"]):
            cluster.create_client(f"sub{i}").subscribe("hot", on_delivery)
        publisher = cluster.create_client("bench-pub")
        rng = Random(self.seed)
        base = size["payload"]

        def tick(now: float) -> None:
            self.published += 1
            publisher.publish("hot", ("tick", self.published), base + rng.randint(-16, 16))

        period = 1.0 / size["rate"]
        self.task = PeriodicTask(sim, period, tick)
        self.phase = rng.random() * period
        cluster.run_until(1.0)

    def run(self) -> None:
        cluster = self.cluster
        self.task.start(start_delay=self.phase)
        cluster.run_until(1.0 + self.size["duration_s"])
        self.task.stop()
        cluster.run_for(1.5)  # drain what is in flight

    def collect(self) -> Dict[str, Any]:
        expected = self.size["subscribers"] * self.published
        exact = self.ledger.summary(expected)
        exact["publications"] = self.published
        checks = {
            "delivers exactly subs x pubs": exact["deliveries"] == expected and expected > 0,
        }
        failed = expected - exact["deliveries"]
        return self.finish(self.probe, exact, checks, failed)


class RGameRamp(Workload):
    """RGame players ramping up under the Dynamoth balancer, then past capacity."""

    name = "rgame_ramp"

    def setup(self) -> None:
        from repro.workload.rgame import RGameConfig, RGameWorkload
        from repro.workload.schedules import steps

        size = self.size
        self.cluster = cluster = make_cluster(
            seed=self.seed,
            config=DynamothConfig(
                max_servers=size["max_servers"], min_servers=size["initial_servers"],
                spawn_delay_s=5.0, t_wait_s=10.0,
                # The default trigger (0.95) rents a server once one is all
                # but full, and on a ramp this steep the 15 s until it
                # carries load are an overload whose depth is a matter of
                # chance: over ten seeds it spread sla_met_ratio by 6.5 %,
                # and a trigger of 0.85 still by 3.7-6.9 %.  At 0.75 the
                # pool grows ahead of the ramp (2 % over twenty seeds).
                lr_high=0.75, lr_safe=0.60,
            ),
            broker_config=BrokerConfig(
                nominal_egress_bps=size["egress"],
                cpu_per_publish_s=10e-6,
                cpu_per_delivery_s=5e-6,
                per_connection_bps=None,
                output_buffer_limit_bytes=8 * 1_048_576,
            ),
            initial_servers=size["initial_servers"],
            balancer=BALANCER_DYNAMOTH,
        )
        self.probe = Probe(cluster)
        latencies, arrivals = self.ledger.latencies, self.ledger.arrivals

        def rtt_sink(rtt: float, now: float) -> None:
            latencies.append(rtt)
            arrivals.append(now)

        self.workload = RGameWorkload(
            cluster,
            RGameConfig(tiles_per_side=size["tiles"], updates_per_s=size["rate"], payload_size=200),
            rtt_sink=self.wrap(rtt_sink),
        )
        self.schedule = steps(size["population"])
        self.workload.follow(self.schedule)
        cluster.run_until(1.0)

    def run(self) -> None:
        self.cluster.run_until(float(self.size["population"][-1][0]))
        self.workload.stop()

    def collect(self) -> Dict[str, Any]:
        cluster, transport = self.cluster, self.cluster.transport
        # A response is a player's own update coming back, so as many are
        # expected as were published.  The run ends in deliberate overload:
        # what has not come back yet sits in egress queues, late, not lost.
        expected = self.workload.total_updates_sent()
        exact = self.ledger.summary(expected)
        # The population driver compares once per second, at whole seconds.
        exact["sustainable_players"] = self.ledger.sustainable(
            lambda second: self.schedule.target(float(second))
        )
        dropped = (read(transport, "messages_dropped") or 0) + int(
            total(cluster.servers.values(), "dropped_deliveries") or 0
        )
        exact["dropped"] = dropped
        final = self.size["population"][-1][1]
        checks = {
            "the pool grew": cluster.server_count > self.size["initial_servers"],
            "the population followed the schedule": self.workload.population == final,
            "late responses are queued, none dropped": dropped == 0 and exact["deliveries"] > 0,
        }
        return self.finish(self.probe, exact, checks, dropped)


class _Reader:
    """One reliable_lossy subscriber: latency plus a duplicate check."""

    __slots__ = ("sim", "latencies", "seen", "duplicates")

    def __init__(self, sim: Any, ledger: LatencyLedger) -> None:
        self.sim = sim
        self.latencies = ledger.latencies
        #: sender -> bitmask of the publication numbers already delivered
        self.seen: Dict[str, int] = {}
        self.duplicates = 0

    def on_delivery(self, channel: str, body: Any, envelope: Any) -> None:
        self.latencies.append(self.sim.now - envelope.sent_at)
        sender, number = body
        bit = 1 << number
        mask = self.seen.get(sender, 0)
        if mask & bit:
            self.duplicates += 1
        self.seen[sender] = mask | bit


def _publish_tick(publisher: Any, channel: str, rng: Random) -> Callable[[float], None]:
    sender = publisher.node_id

    def tick(now: float) -> None:
        publisher.publish(channel, (sender, publisher.published + 1), 200 + rng.randint(-16, 16))

    return tick


class ReliableLossy(Workload):
    """exactly_once + causal order over links that lose a fifth of messages."""

    name = "reliable_lossy"

    def setup(self) -> None:
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import ChaosSchedule, DegradeLink

        size = self.size
        self.cluster = cluster = make_cluster(
            seed=self.seed,
            config=DynamothConfig(max_servers=2, delivery_tier="exactly_once", causal_order=True),
            broker_config=BrokerConfig(nominal_egress_bps=8_000_000.0),
            initial_servers=2,
            balancer=BALANCER_NONE,
        )
        self.probe = Probe(cluster)
        sim = cluster.sim
        rng = Random(self.seed)
        period = 1.0 / size["rate"]
        self.readers: List[_Reader] = []
        self.publishers: List[Any] = []
        self.tasks: List[Any] = []
        subscribers = []
        for c in range(size["channels"]):
            channel = f"tile:{c}"
            for s in range(size["subs"]):
                client = cluster.create_client(f"sub-{c}-{s}")
                reader = _Reader(sim, self.ledger)
                client.subscribe(channel, reader.on_delivery)
                self.readers.append(reader)
                subscribers.append(client)
            for p in range(size["pubs"]):
                publisher = cluster.create_client(f"pub-{c}-{p}")
                self.publishers.append(publisher)
                task = PeriodicTask(sim, period, _publish_tick(publisher, channel, rng))
                self.tasks.append((task, rng.random() * period))
        # Every 4th subscriber's links to every broker lose messages for the
        # middle third of the run: the canonical gap-producing fault.
        duration = size["duration_s"]
        lossy_from, lossy_until = 1.0 + duration / 3.0, 1.0 + 2.0 * duration / 3.0
        faults = tuple(
            DegradeLink(lossy_from, sub.node_id, server_id, loss=size["loss"], until=lossy_until)
            for sub in subscribers[::4]
            for server_id in sorted(cluster.servers)
        )
        FaultInjector(cluster, ChaosSchedule(faults)).arm()
        cluster.run_until(1.0)

    def run(self) -> None:
        cluster, size = self.cluster, self.size
        for task, phase in self.tasks:
            task.start(start_delay=phase)
        cluster.run_until(1.0 + size["duration_s"])
        for task, _ in self.tasks:
            task.stop()
        cluster.run_for(size["drain_s"])

    def collect(self) -> Dict[str, Any]:
        published = sum(p.published for p in self.publishers)
        # Every publication of a channel is owed to every subscriber of it.
        expected = published * self.size["subs"]
        exact = self.ledger.summary(expected)
        exact["publications"] = published
        duplicates = sum(reader.duplicates for reader in self.readers)
        exact["app_duplicates"] = duplicates
        failed = expected - exact["deliveries"] + duplicates
        result = self.finish(self.probe, exact, {}, failed)
        counts = result["counts"]
        result["checks"] = {
            "delivers exactly the expected count": exact["deliveries"] == expected and expected > 0,
            "no app-level duplicate": duplicates == 0,
            "no unrecoverable gap": counts["core.reliability.unrecoverable_gaps"] == 0,
            "the lossy window lost messages": (
                counts["core.reliability.replayed_messages"] or 0
            ) > 0,
        }
        return result


class _CrashWatch:
    """Tracer observer: response times and who was cut off for how long.

    ``run_chaos`` owns its workload and hands it no ``rtt_sink``, so the
    response time is read off the trace: a ``DeliveryEvent`` whose client
    is its sender.  Publications still unanswered at the end are the lost
    ones; which of them ``at_most_once`` excuses depends on when their
    sender failed over and when it was delivering again, so both are kept
    per subscriber, timed as ``RecoveryWatch`` times them.
    """

    def __init__(self, ledger: LatencyLedger) -> None:
        from repro.obs.trace import ClientFailoverEvent, DeliveryEvent, PublishEvent

        self.latencies = ledger.latencies
        self.delivery_type, self.publish_type = DeliveryEvent, PublishEvent
        self.failover_type = ClientFailoverEvent
        #: msg id -> (sent at, sender, target brokers) of unanswered publications
        self.pending: Dict[str, tuple] = {}
        self.published = 0
        self.failed_over: Dict[str, float] = {}
        self.recovered: Dict[str, float] = {}

    def __call__(self, event: Any) -> None:
        kind = type(event)
        if kind is self.delivery_type:
            client = event.client
            if client == event.sender and self.pending.pop(event.msg_id, None) is not None:
                self.latencies.append(event.latency_s)
            if self.failed_over and client not in self.recovered:
                since = self.failed_over.get(client)
                if since is not None and event.t > since:
                    self.recovered[client] = event.t
        elif kind is self.publish_type:
            self.published += 1
            self.pending[event.msg_id] = (event.t, event.sender, event.targets)
        elif kind is self.failover_type:
            self.failed_over.setdefault(event.client, event.t)


class TracedCrash(Workload):
    """``run_chaos``: broker crash under RGame, traced through a streaming sink."""

    name = "traced_crash"

    def setup(self) -> None:
        from repro.experiments.chaos import ChaosScenarioConfig
        from repro.obs.sink import StreamingJsonlSink
        from repro.obs.trace import Tracer

        size = self.size
        self.config = ChaosScenarioConfig(
            tiles_per_side=size["tiles"],
            players=size["players"],
            crash_at_s=size["crash_at_s"],
            duration_s=size["duration_s"],
            nominal_egress_bps=size["egress"],
            sla_threshold_s=SLA_S,
            seed=self.seed,
        )
        self.trace_path = os.path.join(self.out_dir, f"traced_crash-{os.getpid()}.trace.jsonl")
        self.sink = StreamingJsonlSink(self.trace_path)
        self.tracer = Tracer(sink=self.sink)
        self.watch = _CrashWatch(self.ledger)
        self.tracer.add_observer(self.watch)

    def run(self) -> None:
        from repro.experiments.chaos import run_chaos

        # run_chaos builds its own cluster and returns only the milestones;
        # catch the cluster as it is built so its public counters can be read.
        built: List[Probe] = []
        original = DynamothCluster.__init__

        def capturing_init(cluster: DynamothCluster, *args: Any, **kwargs: Any) -> None:
            original(cluster, *args, **kwargs)
            built.append(Probe(cluster))

        DynamothCluster.__init__ = capturing_init  # type: ignore[method-assign]
        try:
            self.result = run_chaos(self.config, tracer=self.tracer)
        finally:
            DynamothCluster.__init__ = original  # type: ignore[method-assign]
        self.trace_events = self.sink.finalize(self.tracer)
        self.probe = built[0]

    def collect(self) -> Dict[str, Any]:
        result, watch = self.result, self.watch
        exact = self.ledger.summary(watch.published)
        back = sum(1 for client in watch.failed_over if client in watch.recovered)
        # Crash -> the slowest affected subscriber delivering again.  A
        # straggler still backing off when the run ends counts for the
        # whole remaining window: the figure stays defined and only worsens.
        exact["recovery_s"] = (
            result.recovery_s
            if result.recovery_s is not None
            else self.config.duration_s - result.crash_t
        )
        exact["detection_s"] = result.detection_s
        exact["failovers"] = result.failover_count
        exact["recovered_subscribers"] = back
        exact["trace_events"] = self.trace_events
        lost_outside = _lost_outside_outage(watch, result)
        exact["lost_outside_outage"] = lost_outside
        from repro.obs import iter_trace

        # The repo's own reader: checks the schema header, decodes every event.
        parsed = sum(1 for _ in iter_trace(self.trace_path))
        trace_bytes = os.path.getsize(self.trace_path)
        os.remove(self.trace_path)
        checks = {
            # The slowest resubscribe back-off is an extreme value; a run
            # whose last straggler is still backing off has recovered.
            "recovered": result.detection_s is not None
            and result.repair_s is not None
            and 0 < len(watch.failed_over) * 0.95 <= back,
            "trace is non-empty and parses": parsed == self.trace_events and parsed > 0,
            "nothing lost outside the outage": lost_outside == 0,
        }
        out = self.finish(self.probe, exact, checks, lost_outside)
        out["trace_bytes"] = trace_bytes
        return out


def _lost_outside_outage(watch: _CrashWatch, result: Any) -> int:
    """Unanswered publications that at_most_once does not excuse.

    The tier permits loss of what was sent to the dead broker (a client
    learns of the crash lazily, the first time it probes that broker),
    of what a subscriber sent while it was itself cut off, and of what
    was in flight while the plan was being repaired.  The last second of
    the run is in flight, not lost.  Anything else is a failure.
    """
    crash_t, victim = result.crash_t, result.victim
    horizon = result.config.duration_s - 1.0
    repaired = crash_t + (result.repair_s if result.repair_s is not None else horizon) + 1.0
    lost = 0
    for sent, sender, targets in watch.pending.values():
        if sent >= horizon or (sent >= crash_t - 1.0 and victim in targets):
            continue
        if crash_t - 1.0 <= sent <= repaired:
            continue
        cut_off = watch.failed_over.get(sender)
        if cut_off is not None and crash_t - 1.0 <= sent <= watch.recovered.get(sender, horizon):
            continue
        lost += 1
    return lost


WORKLOADS = {w.name: w for w in (FanoutWide, RGameRamp, ReliableLossy, TracedCrash)}
