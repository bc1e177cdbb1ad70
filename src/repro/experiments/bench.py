"""Reproducible performance benchmarks (``python -m repro.experiments bench``).

Every PR that claims a hot-path speedup must prove it with numbers from
this harness.  Four canonical scenarios exercise the publish->deliver
pipeline end to end through the real cluster stack:

``steady``
    Many channels, moderate fan-out, the full Dynamoth balancer running --
    the control-plane-plus-data-plane mix of a healthy deployment.
``fanout``
    One hot channel with a large subscriber population (10k in the full
    profile) and a single publisher: the pure egress fan-out hot path, and
    the scenario the ``BENCH_*.json`` trajectory tracks across PRs.
``flash_crowd``
    Subscribers pile onto one channel over a short ramp while it is being
    published to -- the paper's flash-crowd motivation, stressing the
    subscribe path concurrently with growing fan-out.
``chaos_light``
    The ``repro.faults`` smoke scenario (broker crash + recovery) -- keeps
    the failure-path overhead measured so fast-path work never regresses it.
``reliability``
    The delivery-guarantee price list: one steady workload with a lossy
    subscriber link, run once per delivery tier (at_most_once,
    at_least_once, exactly_once).  Reports, per tier, delivered and
    replayed message counts, replay bytes, duplicate suppressions, and
    subscriber-observed latency (mean and p95) -- the measured cost of
    each guarantee rides in ``ScenarioResult.reliability``.

Reported per scenario: executed simulator events, wall-clock seconds,
events/second (the headline metric), deliveries, peak RSS, and an RSS
*time series* sampled every ``RSS_SAMPLE_EVERY`` executed events through
the kernel's sampling hook (so sampling never perturbs the event
sequence).  Peak RSS is process-wide and monotonic across scenarios in
one run; compare it only between runs of the same scenario order.  The
``chaos_light`` scenario runs fully traced through a streaming JSONL sink
(no event buffering) and carries the live SLA monitor's windowed-p95
report and violation timeline into the JSON.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.broker.config import BrokerConfig
from repro.core.cluster import BALANCER_DYNAMOTH, BALANCER_NONE, DynamothCluster
from repro.core.config import DynamothConfig
from repro.obs.sink import StreamingJsonlSink
from repro.obs.trace import Tracer
from repro.sim.timers import PeriodicTask

#: Schema version of the emitted JSON.
#: v2: per-scenario ``rss_series`` and the chaos scenario's ``sla`` report.
BENCH_SCHEMA = 2

#: Sample RSS once per this many executed simulator events.
RSS_SAMPLE_EVERY = 10_000

#: The scenario whose events/second the CI regression gate watches.
HEADLINE_SCENARIO = "fanout"


@dataclass(frozen=True)
class BenchProfile:
    """Scenario sizing knobs.  ``smoke`` must stay CI-friendly (< ~1 min)."""

    name: str
    # fanout
    fanout_subscribers: int
    fanout_rate: float
    fanout_duration_s: float
    # steady
    steady_channels: int
    steady_subs_per_channel: int
    steady_pubs_per_channel: int
    steady_rate: float
    steady_duration_s: float
    # flash crowd
    flash_subscribers: int
    flash_ramp_s: float
    flash_hold_s: float
    flash_rate: float


SMOKE_PROFILE = BenchProfile(
    name="smoke",
    fanout_subscribers=2_000,
    fanout_rate=10.0,
    fanout_duration_s=5.0,
    steady_channels=20,
    steady_subs_per_channel=5,
    steady_pubs_per_channel=2,
    steady_rate=2.0,
    steady_duration_s=10.0,
    flash_subscribers=500,
    flash_ramp_s=5.0,
    flash_hold_s=5.0,
    flash_rate=20.0,
)

FULL_PROFILE = BenchProfile(
    name="full",
    fanout_subscribers=10_000,
    fanout_rate=10.0,
    fanout_duration_s=10.0,
    steady_channels=50,
    steady_subs_per_channel=10,
    steady_pubs_per_channel=2,
    steady_rate=4.0,
    steady_duration_s=20.0,
    flash_subscribers=3_000,
    flash_ramp_s=10.0,
    flash_hold_s=10.0,
    flash_rate=20.0,
)

PROFILES = {p.name: p for p in (SMOKE_PROFILE, FULL_PROFILE)}


@dataclass
class ScenarioResult:
    """One scenario's measurements (the JSON unit of ``BENCH_*.json``)."""

    name: str
    wall_s: float
    sim_time_s: float
    events: int
    events_per_s: float
    deliveries: int
    deliveries_per_s: float
    peak_rss_kb: int
    #: [{"events": N, "rss_kb": K}, ...] sampled every RSS_SAMPLE_EVERY
    #: executed events via the kernel sampling hook
    rss_series: List[Dict[str, int]] = field(default_factory=list)
    #: live SLA monitor report (chaos_light only)
    sla: Optional[Dict[str, Any]] = None
    #: per-delivery-tier price list (reliability scenario only)
    reliability: Optional[Dict[str, Any]] = None


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _current_rss_kb() -> int:
    """Instantaneous resident set size (kB); peak RSS as a fallback."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return _peak_rss_kb()


class _RssSampler:
    """Kernel sampling-hook target recording an RSS time series.

    Installed with :meth:`Simulator.set_sample_hook`, which fires on a
    cheap executed-event counter -- the sampler never schedules events,
    so the measured run's event sequence is identical to an unsampled one.
    """

    __slots__ = ("series",)

    def __init__(self) -> None:
        self.series: List[Dict[str, int]] = []

    def __call__(self, now: float, events_processed: int) -> None:
        self.series.append(
            {"events": events_processed, "rss_kb": _current_rss_kb()}
        )


def _install_rss_sampler(cluster: DynamothCluster, sampler: _RssSampler) -> None:
    cluster.sim.set_sample_hook(sampler, every=RSS_SAMPLE_EVERY)


def _measure(name: str, build_and_run: Callable[[], DynamothCluster]) -> ScenarioResult:
    start = time.perf_counter()
    cluster = build_and_run()
    wall = time.perf_counter() - start
    events = cluster.sim.events_processed
    deliveries = sum(s.delivery_count for s in cluster.servers.values())
    return ScenarioResult(
        name=name,
        wall_s=round(wall, 4),
        sim_time_s=round(cluster.sim.now, 3),
        events=events,
        events_per_s=round(events / wall, 1) if wall > 0 else 0.0,
        deliveries=deliveries,
        deliveries_per_s=round(deliveries / wall, 1) if wall > 0 else 0.0,
        peak_rss_kb=_peak_rss_kb(),
    )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def run_fanout(profile: BenchProfile, *, seed: int = 0) -> ScenarioResult:
    """One hot channel, huge subscriber set, single publisher."""
    sampler = _RssSampler()

    def build() -> DynamothCluster:
        broker = BrokerConfig(
            nominal_egress_bps=200_000_000.0,
            cpu_per_publish_s=5e-6,
            cpu_per_delivery_s=1e-6,
            per_connection_bps=None,
            output_buffer_limit_bytes=1 << 30,
        )
        cluster = DynamothCluster(
            seed=seed,
            config=DynamothConfig(max_servers=1, min_servers=1),
            broker_config=broker,
            initial_servers=1,
            balancer=BALANCER_NONE,
        )
        _install_rss_sampler(cluster, sampler)
        sink = _CountingSink()
        for i in range(profile.fanout_subscribers):
            client = cluster.create_client(f"sub{i}")
            client.subscribe("hot", sink.on_delivery)
        publisher = cluster.create_client("bench-pub")
        task = PeriodicTask(
            cluster.sim,
            1.0 / profile.fanout_rate,
            lambda now: publisher.publish("hot", ("tick", int(now * 1000)), 200),
        )
        cluster.run_until(1.0)  # let subscriptions land
        task.start()
        cluster.run_until(1.0 + profile.fanout_duration_s)
        task.stop()
        cluster.run_for(0.6)  # drain in-flight deliveries
        return cluster

    result = _measure("fanout", build)
    result.rss_series = sampler.series
    return result


def run_steady(profile: BenchProfile, *, seed: int = 0) -> ScenarioResult:
    """Many channels, moderate fan-out, the real balancer in the loop."""
    sampler = _RssSampler()

    def build() -> DynamothCluster:
        cluster = DynamothCluster(
            seed=seed,
            config=DynamothConfig(max_servers=4),
            broker_config=BrokerConfig(nominal_egress_bps=4_000_000.0),
            initial_servers=4,
            balancer=BALANCER_DYNAMOTH,
        )
        _install_rss_sampler(cluster, sampler)
        sink = _CountingSink()
        tasks: List[PeriodicTask] = []
        for c in range(profile.steady_channels):
            channel = f"tile:{c}"
            for s in range(profile.steady_subs_per_channel):
                client = cluster.create_client(f"sub-{c}-{s}")
                client.subscribe(channel, sink.on_delivery)
            for p in range(profile.steady_pubs_per_channel):
                publisher = cluster.create_client(f"pub-{c}-{p}")
                tasks.append(
                    PeriodicTask(
                        cluster.sim,
                        1.0 / profile.steady_rate,
                        _make_publish_tick(publisher, channel),
                    )
                )
        cluster.run_until(1.0)
        for task in tasks:
            task.start()
        cluster.run_until(1.0 + profile.steady_duration_s)
        for task in tasks:
            task.stop()
        cluster.run_for(0.6)
        return cluster

    result = _measure("steady", build)
    result.rss_series = sampler.series
    return result


def run_flash_crowd(profile: BenchProfile, *, seed: int = 0) -> ScenarioResult:
    """Subscribers ramp onto one channel while it is being published to."""
    sampler = _RssSampler()

    def build() -> DynamothCluster:
        broker = BrokerConfig(
            nominal_egress_bps=50_000_000.0,
            per_connection_bps=None,
            output_buffer_limit_bytes=1 << 30,
        )
        cluster = DynamothCluster(
            seed=seed,
            config=DynamothConfig(max_servers=4),
            broker_config=broker,
            initial_servers=2,
            balancer=BALANCER_DYNAMOTH,
        )
        _install_rss_sampler(cluster, sampler)
        sink = _CountingSink()
        channel = "event:final"
        # Pre-create clients; stagger only the subscribe calls so the ramp
        # measures the subscribe+fanout path, not client construction.
        step = profile.flash_ramp_s / profile.flash_subscribers
        for i in range(profile.flash_subscribers):
            client = cluster.create_client(f"fan{i}")
            cluster.sim.schedule(
                1.0 + i * step, client.subscribe, channel, sink.on_delivery
            )
        publisher = cluster.create_client("caster")
        task = PeriodicTask(
            cluster.sim, 1.0 / profile.flash_rate, _make_publish_tick(publisher, channel)
        )
        task.start()
        cluster.run_until(1.0 + profile.flash_ramp_s + profile.flash_hold_s)
        task.stop()
        cluster.run_for(0.6)
        return cluster

    result = _measure("flash_crowd", build)
    result.rss_series = sampler.series
    return result


class _SamplingTracer(Tracer):
    """A tracer that also installs the RSS sampler on kernel attach.

    ``run_chaos`` owns its cluster, so the only seam through which the
    bench harness reaches the kernel is the tracer's ``attach_kernel``.
    """

    def __init__(self, sampler: _RssSampler, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._rss_sampler = sampler

    def attach_kernel(self, sim: Any) -> None:
        super().attach_kernel(sim)
        sim.set_sample_hook(self._rss_sampler, every=RSS_SAMPLE_EVERY)


def run_chaos_light(profile: BenchProfile, *, seed: int = 0) -> ScenarioResult:
    """The chaos smoke scenario: crash + recovery, fully traced.

    The trace streams through a :class:`StreamingJsonlSink` into a
    throwaway file with event buffering off -- the bench therefore also
    proves the bounded-memory path: milestones come from the streaming
    ``RecoveryWatch`` observer, the delivery count from the
    ``deliveries_received_total`` counter, never from ``tracer.events``.
    """
    from repro.experiments import chaos

    sampler = _RssSampler()
    config = chaos.ChaosScenarioConfig.smoke()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        trace_path = os.path.join(tmp, "chaos.jsonl")
        sink = StreamingJsonlSink(trace_path)
        tracer = _SamplingTracer(sampler, sink=sink)
        start = time.perf_counter()
        result = chaos.run_chaos(config, tracer=tracer)
        wall = time.perf_counter() - start
        sink.finalize(tracer)
    # The snapshot pulls the kernel's event count into sim_events_total.
    counters = result.tracer.metrics.snapshot()["counters"]
    events = int(counters["sim_events_total"])
    deliveries = int(counters["deliveries_received_total"])
    return ScenarioResult(
        name="chaos_light",
        wall_s=round(wall, 4),
        sim_time_s=round(config.duration_s, 3),
        events=events,
        events_per_s=round(events / wall, 1) if wall > 0 else 0.0,
        deliveries=deliveries,
        deliveries_per_s=round(deliveries / wall, 1) if wall > 0 else 0.0,
        peak_rss_kb=_peak_rss_kb(),
        rss_series=sampler.series,
        sla=result.sla,
    )


class _LatencySink:
    """Delivery callback recording subscriber-observed latencies."""

    __slots__ = ("count", "latencies", "sim")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.count = 0
        self.latencies: List[float] = []

    def on_delivery(self, channel, body, envelope) -> None:
        self.count += 1
        self.latencies.append(self.sim.now - envelope.sent_at)


def _latency_stats(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {"mean_ms": 0.0, "p95_ms": 0.0}
    ordered = sorted(latencies)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return {
        "mean_ms": round(sum(ordered) / len(ordered) * 1e3, 3),
        "p95_ms": round(p95 * 1e3, 3),
    }


def run_reliability(profile: BenchProfile, *, seed: int = 0) -> ScenarioResult:
    """The same lossy workload under each delivery tier.

    A steady multi-channel workload whose subscriber links degrade
    mid-run (40% loss for a few seconds) -- the canonical gap-producing
    fault.  ``at_most_once`` simply loses those deliveries;
    ``at_least_once``/``exactly_once`` must detect the sequence holes and
    replay them, and this scenario measures what that buys and costs.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import ChaosSchedule, DegradeLink

    channels = max(2, min(8, profile.steady_channels))
    subs_per_channel = profile.steady_subs_per_channel
    duration = profile.steady_duration_s
    sampler = _RssSampler()
    tiers: Dict[str, Any] = {}
    total_events = 0
    total_deliveries = 0
    total_wall = 0.0
    sim_time = 0.0

    for tier in ("at_most_once", "at_least_once", "exactly_once"):
        holder: Dict[str, Any] = {}

        def build(tier: str = tier, holder: Dict[str, Any] = holder) -> DynamothCluster:
            cluster = DynamothCluster(
                seed=seed,
                config=DynamothConfig(max_servers=2, delivery_tier=tier),
                broker_config=BrokerConfig(nominal_egress_bps=8_000_000.0),
                initial_servers=2,
                balancer=BALANCER_NONE,
            )
            _install_rss_sampler(cluster, sampler)
            sink = _LatencySink(cluster.sim)
            subscribers = []
            tasks: List[PeriodicTask] = []
            for c in range(channels):
                channel = f"tile:{c}"
                for s in range(subs_per_channel):
                    client = cluster.create_client(f"sub-{c}-{s}")
                    client.subscribe(channel, sink.on_delivery)
                    subscribers.append(client)
                publisher = cluster.create_client(f"pub-{c}")
                tasks.append(
                    PeriodicTask(
                        cluster.sim,
                        1.0 / profile.steady_rate,
                        _make_publish_tick(publisher, channel),
                    )
                )
            # Degrade a fixed slice of subscriber links to every broker
            # for the middle third of the run: deterministic gap
            # production, identical across tiers (same seed, same plane).
            lossy_from = 1.0 + duration / 3.0
            lossy_until = 1.0 + 2.0 * duration / 3.0
            faults = tuple(
                DegradeLink(
                    lossy_from, sub.node_id, server_id,
                    loss=0.4, until=lossy_until,
                )
                for sub in subscribers[: 2 * subs_per_channel]
                for server_id in sorted(cluster.servers)
            )
            injector = FaultInjector(cluster, ChaosSchedule(faults))
            injector.arm()
            cluster.run_until(1.0)
            for task in tasks:
                task.start()
            cluster.run_until(1.0 + duration)
            for task in tasks:
                task.stop()
            cluster.run_for(2.0)  # let replay requests drain
            holder["cluster"] = cluster
            holder["sink"] = sink
            holder["subscribers"] = subscribers
            return cluster

        result = _measure(f"reliability:{tier}", build)
        cluster = holder["cluster"]
        sink = holder["sink"]
        subscribers = holder["subscribers"]
        replayed_messages = replayed_bytes = unrecoverable = 0
        for server in cluster.servers.values():
            rel = getattr(server, "reliability", None)
            if rel is not None:
                replayed_messages += rel.replayed_messages
                replayed_bytes += rel.replayed_bytes
                unrecoverable += rel.unrecoverable_gaps
        gap_requests = sum(sub.gap_requests for sub in subscribers)
        duplicates = sum(sub.duplicates for sub in subscribers)
        tiers[tier] = {
            "app_deliveries": sink.count,
            "duplicates_suppressed": duplicates,
            "gap_requests": gap_requests,
            "replayed_messages": replayed_messages,
            "replayed_bytes": replayed_bytes,
            "unrecoverable_gaps": unrecoverable,
            "events": result.events,
            "wall_s": result.wall_s,
            "latency": _latency_stats(sink.latencies),
        }
        total_events += result.events
        total_deliveries += result.deliveries
        total_wall += result.wall_s
        sim_time = max(sim_time, result.sim_time_s)

    return ScenarioResult(
        name="reliability",
        wall_s=round(total_wall, 4),
        sim_time_s=sim_time,
        events=total_events,
        events_per_s=round(total_events / total_wall, 1) if total_wall > 0 else 0.0,
        deliveries=total_deliveries,
        deliveries_per_s=(
            round(total_deliveries / total_wall, 1) if total_wall > 0 else 0.0
        ),
        peak_rss_kb=_peak_rss_kb(),
        rss_series=sampler.series,
        reliability=tiers,
    )


SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "steady": run_steady,
    "fanout": run_fanout,
    "flash_crowd": run_flash_crowd,
    "chaos_light": run_chaos_light,
    "reliability": run_reliability,
}


class _CountingSink:
    """Shared delivery callback: counts without per-delivery allocation."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def on_delivery(self, channel, body, envelope) -> None:
        self.count += 1


def _make_publish_tick(publisher, channel: str):
    def tick(now: float) -> None:
        publisher.publish(channel, ("tick", publisher.published), 200)

    return tick


# ----------------------------------------------------------------------
# Harness driver
# ----------------------------------------------------------------------
def run_bench(
    profile: BenchProfile,
    *,
    seed: int = 0,
    scenarios: Optional[List[str]] = None,
    repeat: int = 1,
) -> Dict[str, ScenarioResult]:
    """Run the selected scenarios; with ``repeat`` > 1 keep the fastest run."""
    names = scenarios if scenarios else list(SCENARIOS)
    results: Dict[str, ScenarioResult] = {}
    for name in names:
        runner = SCENARIOS[name]
        best: Optional[ScenarioResult] = None
        for __ in range(max(1, repeat)):
            result = runner(profile, seed=seed)
            if best is None or result.events_per_s > best.events_per_s:
                best = result
        assert best is not None
        results[name] = best
    return results


def results_to_dict(
    profile: BenchProfile, results: Dict[str, ScenarioResult]
) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "profile": profile.name,
        "python": platform.python_version(),
        "scenarios": {name: asdict(r) for name, r in results.items()},
    }


def extract_headline(doc: dict) -> Optional[float]:
    """Headline fan-out events/second from a bench JSON document.

    Accepts both a plain harness dump (``{"scenarios": ...}``) and the
    committed before/after trajectory format (``{"after": {...}}``).
    """
    section = doc.get("after", doc)
    scenario = section.get("scenarios", {}).get(HEADLINE_SCENARIO)
    if scenario is None:
        return None
    return float(scenario["events_per_s"])


def render_results(results: Dict[str, ScenarioResult]) -> str:
    header = (
        f"{'scenario':<14} {'events':>10} {'wall s':>8} "
        f"{'events/s':>11} {'deliv/s':>11} {'rss MB':>8}"
    )
    lines = [header, "-" * len(header)]
    lines.extend(
        f"{r.name:<14} {r.events:>10} {r.wall_s:>8.2f} "
        f"{r.events_per_s:>11.0f} {r.deliveries_per_s:>11.0f} "
        f"{r.peak_rss_kb / 1024.0:>8.1f}"
        for r in results.values()
    )
    for r in results.values():
        if r.reliability is not None:
            for tier, stats in r.reliability.items():
                latency = stats["latency"]
                lines.append(
                    f"{r.name}: {tier:<14} {stats['app_deliveries']} delivered, "
                    f"{stats['replayed_messages']} replayed "
                    f"({stats['replayed_bytes']} B), "
                    f"{stats['duplicates_suppressed']} dup(s) suppressed, "
                    f"p95 {latency['p95_ms']:.1f}ms"
                )
    for r in results.values():
        if r.sla is not None:
            overall = r.sla["scopes"].get("overall", {}).get("value_s")
            shown = f"{overall * 1e3:.1f}ms" if overall is not None else "n/a"
            lines.append(
                f"{r.name}: windowed p{r.sla['quantile']:g} {shown} vs "
                f"{r.sla['threshold_s'] * 1e3:.0f}ms SLA, "
                f"{r.sla['violation_count']} violation(s), "
                f"{r.sla['violation_seconds']:.1f}s in violation"
            )
    return "\n".join(lines)


def compare_to_baseline(
    current: dict, baseline: dict, max_regression: float
) -> Optional[str]:
    """Return an error string when the headline metric regressed too far."""
    base = extract_headline(baseline)
    now = extract_headline(current)
    if base is None or now is None:
        return None  # nothing comparable; never fail on missing data
    floor = base * (1.0 - max_regression)
    if now < floor:
        return (
            f"{HEADLINE_SCENARIO} events/s regressed: {now:.0f} < "
            f"{floor:.0f} (baseline {base:.0f}, allowed -{max_regression:.0%})"
        )
    return None


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
