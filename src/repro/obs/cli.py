"""Trace-analysis CLI: ``python -m repro.obs <command> <trace.jsonl>``.

Commands over JSONL traces produced by :mod:`repro.obs.export` (buffered
or streamed, plain or gzipped, rotated segments included):

* ``summary`` -- run summary: delivery-latency percentiles overall and per
  *phase* (the interval between two consecutive plan generations), the
  reconfiguration timeline, the failure & recovery timeline, the SLA
  violation timeline, per-server load-ratio sparklines and the hottest
  channels;
* ``sla`` -- just the SLA-violation timeline, optionally as JSON (the CI
  chaos job uploads this as an artifact).

What a run costs per delivery is not in the trace: the perf ledger's
counting pass (``benchmarks/ledger/run.py``) reads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import read_trace_segments
from repro.obs.recovery import RecoveryWatch
from repro.obs.sla import OVERALL_SCOPE
from repro.obs.trace import (
    ClientFailoverEvent,
    ClientReconnectEvent,
    DecommissionEvent,
    DeliveryEvent,
    FanoutEvent,
    LinkFaultEvent,
    LlaStallEvent,
    LoadSnapshotEvent,
    MetricsEvent,
    MigrationSettledEvent,
    MigrationStartEvent,
    PartitionEvent,
    PartitionHealedEvent,
    PlanGeneratedEvent,
    PlanRepairDoneEvent,
    PlanRepairStartEvent,
    ServerCrashEvent,
    ServerFailureConfirmedEvent,
    ServerReadyEvent,
    ServerRestartEvent,
    ServerResurrectedEvent,
    ServerSuspectEvent,
    SlaViolationEndEvent,
    SlaViolationStartEvent,
    TraceEvent,
)

#: Event classes rendered in the failure & recovery timeline, in the order
#: they appear during one crash -> detect -> repair -> resubscribe cycle.
FAULT_EVENT_CLASSES = (
    ServerCrashEvent,
    ServerRestartEvent,
    PartitionEvent,
    PartitionHealedEvent,
    LinkFaultEvent,
    LlaStallEvent,
    ServerSuspectEvent,
    ServerFailureConfirmedEvent,
    ServerResurrectedEvent,
    PlanRepairStartEvent,
    PlanRepairDoneEvent,
    ClientFailoverEvent,
    ClientReconnectEvent,
)

SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Exact percentile (q in [0, 100]) of a sample list, nearest-rank."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def sparkline(values: Sequence[float], width: int = 32, ceiling: Optional[float] = None) -> str:
    """Downsample ``values`` to ``width`` columns of block characters."""
    if not values:
        return ""
    if len(values) > width:
        # Mean-pool each column so spikes are averaged, not dropped.
        pooled = []
        for column in range(width):
            lo = column * len(values) // width
            hi = max(lo + 1, (column + 1) * len(values) // width)
            chunk = values[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    top = ceiling if ceiling is not None else max(values)
    if top <= 0:
        return SPARK_LEVELS[1] * len(values)
    steps = len(SPARK_LEVELS) - 1
    out = []
    for value in values:
        level = min(steps, max(1, 1 + int(value / top * (steps - 1))))
        out.append(SPARK_LEVELS[level])
    return "".join(out)


def _fmt_ms(seconds: Optional[float]) -> str:
    return f"{seconds * 1000:8.2f}ms" if seconds is not None else "       --"


class TraceSummary:
    """All derived views of one loaded trace."""

    def __init__(self, events: List[TraceEvent]):
        self.events = events
        self.deliveries: List[DeliveryEvent] = [
            e for e in events if isinstance(e, DeliveryEvent)
        ]
        self.fanouts: List[FanoutEvent] = [e for e in events if isinstance(e, FanoutEvent)]
        self.plans: List[PlanGeneratedEvent] = [
            e for e in events if isinstance(e, PlanGeneratedEvent)
        ]
        self.migrations: List[MigrationStartEvent] = [
            e for e in events if isinstance(e, MigrationStartEvent)
        ]
        self.settlements: List[MigrationSettledEvent] = [
            e for e in events if isinstance(e, MigrationSettledEvent)
        ]
        self.load_snapshots: List[LoadSnapshotEvent] = [
            e for e in events if isinstance(e, LoadSnapshotEvent)
        ]
        self.fault_events: List[TraceEvent] = [
            e for e in events if isinstance(e, FAULT_EVENT_CLASSES)
        ]
        self.sla_events: List[TraceEvent] = [
            e
            for e in events
            if isinstance(e, (SlaViolationStartEvent, SlaViolationEndEvent))
        ]

    @property
    def duration(self) -> float:
        return max((e.t for e in self.events), default=0.0)

    def fanout_cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-broker fan-out cache gauges from the final metrics trailer.

        Returns ``{server: {gauge_name: value}}`` for the
        ``fanout_cache_*`` gauges the broker publishes (compiled-channel
        count, hits, builds, invalidations), or ``{}`` when the trace
        has no metrics trailer or the run predates the cache.
        """
        trailer: Optional[MetricsEvent] = None
        for event in self.events:
            if isinstance(event, MetricsEvent):
                trailer = event  # keep the last snapshot
        if trailer is None:
            return {}
        out: Dict[str, Dict[str, float]] = {}
        for key, value in trailer.data.get("gauges", {}).items():
            if not key.startswith("fanout_cache_"):
                continue
            name, _, labels = key.partition("{")
            server = "?"
            for label in labels.rstrip("}").split(","):
                if label.startswith("server="):
                    server = label[len("server="):]
            out.setdefault(server, {})[name[len("fanout_cache_"):]] = value
        return out

    # ------------------------------------------------------------------
    # Phases: intervals between plan generations
    # ------------------------------------------------------------------
    def phases(self) -> List[Tuple[float, float, int]]:
        """``(start, end, plan_version)`` windows covering the whole run."""
        end = self.duration
        if not self.plans:
            return [(0.0, end, 0)]
        out = []
        initial_version = max(0, self.plans[0].version - 1)
        boundaries = [(0.0, initial_version)] + [(p.t, p.version) for p in self.plans]
        for index, (start, version) in enumerate(boundaries):
            stop = boundaries[index + 1][0] if index + 1 < len(boundaries) else end
            out.append((start, stop, version))
        return out

    def settle_time(self, plan: PlanGeneratedEvent) -> Optional[float]:
        """Seconds from plan generation until its last migration settled."""
        channels = set(plan.channels_changed)
        if not channels:
            return None
        next_plan_t = min((p.t for p in self.plans if p.t > plan.t), default=float("inf"))
        settled = [
            s.t
            for s in self.settlements
            if s.channel in channels and plan.t <= s.t < next_plan_t
        ]
        return max(settled) - plan.t if settled else None

    # ------------------------------------------------------------------
    # Channel and server aggregates
    # ------------------------------------------------------------------
    def hottest_channels(self, top: int) -> List[Tuple[str, int, float]]:
        """``(channel, deliveries, p99 latency)`` ordered hottest first."""
        counts: Dict[str, int] = defaultdict(int)
        latencies: Dict[str, List[float]] = defaultdict(list)
        for event in self.deliveries:
            counts[event.channel] += 1
            latencies[event.channel].append(event.latency_s)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        return [
            (channel, count, percentile(latencies[channel], 99) or 0.0)
            for channel, count in ranked
        ]

    # ------------------------------------------------------------------
    # Failure & recovery
    # ------------------------------------------------------------------
    def recoveries(self) -> List[RecoveryWatch]:
        """Each server crash's milestones, in crash order: a
        :class:`RecoveryWatch` fed the trace from that crash on."""
        return [
            RecoveryWatch(event.server).replay(self.events[index:])
            for index, event in enumerate(self.events)
            if isinstance(event, ServerCrashEvent)
        ]

    def load_series(self) -> Dict[str, List[Tuple[float, float]]]:
        series: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for snap in self.load_snapshots:
            for server, ratio in snap.ratios.items():
                series[server].append((snap.t, ratio))
        return dict(series)

    # ------------------------------------------------------------------
    # SLA violations
    # ------------------------------------------------------------------
    def sla_timeline(self) -> List[Dict[str, Any]]:
        """Violation episodes paired from start/end events, in start order.

        Episodes still open at the end of the trace have ``end_t`` /
        ``duration_s`` of ``None``.
        """
        episodes: List[Dict[str, Any]] = []
        open_by_scope: Dict[str, Dict[str, Any]] = {}
        for event in self.sla_events:
            if isinstance(event, SlaViolationStartEvent):
                episode = {
                    "scope": event.scope,
                    "start_t": event.t,
                    "end_t": None,
                    "duration_s": None,
                    "quantile": event.quantile,
                    "threshold_s": event.threshold_s,
                    "value_s": event.value_s,
                    "peak_s": event.value_s,
                }
                episodes.append(episode)
                open_by_scope[event.scope] = episode
            else:
                assert isinstance(event, SlaViolationEndEvent)
                episode = open_by_scope.pop(event.scope, None)
                if episode is None:
                    continue  # truncated trace: end without a start
                episode["end_t"] = event.t
                episode["duration_s"] = event.duration_s
                episode["peak_s"] = event.peak_s
        return episodes


def _fault_line(event: TraceEvent) -> str:
    """One human-readable timeline line per fault/recovery event."""
    if isinstance(event, ServerCrashEvent):
        return f"crash            {event.server}"
    if isinstance(event, ServerRestartEvent):
        return f"restart          {event.server}"
    if isinstance(event, PartitionEvent):
        return f"partition        {event.a} <-/-> {event.b}"
    if isinstance(event, PartitionHealedEvent):
        return f"partition-healed {event.a} <---> {event.b}"
    if isinstance(event, LinkFaultEvent):
        if event.loss <= 0.0 and event.jitter_s <= 0.0:
            return f"link-restored    {event.a} <-> {event.b}"
        return (
            f"link-fault       {event.a} <-> {event.b} "
            f"(loss {event.loss:.0%}, jitter {event.jitter_s * 1000:.0f}ms)"
        )
    if isinstance(event, LlaStallEvent):
        verb = "lla-stall       " if event.stalled else "lla-resume      "
        return f"{verb} {event.server}"
    if isinstance(event, ServerSuspectEvent):
        return f"suspect          {event.server} (silent {event.silence_s:.1f}s)"
    if isinstance(event, ServerFailureConfirmedEvent):
        return f"failure-confirm  {event.server} (silent {event.silence_s:.1f}s)"
    if isinstance(event, ServerResurrectedEvent):
        return f"resurrected      {event.server}"
    if isinstance(event, PlanRepairStartEvent):
        return f"repair-start     {event.server} ({len(event.channels)} channel(s))"
    if isinstance(event, PlanRepairDoneEvent):
        return f"repair-done      {event.server} -> plan v{event.version}"
    if isinstance(event, ClientFailoverEvent):
        return (
            f"client-failover  {event.client} lost {event.server} "
            f"({len(event.channels)} channel(s))"
        )
    if isinstance(event, ClientReconnectEvent):
        servers = ",".join(event.servers)
        return (
            f"client-reconnect {event.client} {event.channel} -> {servers} "
            f"(attempt {event.attempts})"
        )
    return type(event).TYPE  # pragma: no cover - FAULT_EVENT_CLASSES is closed


def render_summary(summary: TraceSummary, top: int = 5) -> str:
    lines: List[str] = []
    out = lines.append
    out(
        f"trace: {len(summary.events)} events over "
        f"{summary.duration:.1f} sim-seconds"
    )

    # --- delivery latency, overall + per phase ---
    all_latencies = [e.latency_s for e in summary.deliveries]
    out("")
    out(f"delivery latency ({len(all_latencies)} deliveries)")
    out(
        f"  overall          n={len(all_latencies):>7}  "
        f"p50={_fmt_ms(percentile(all_latencies, 50))}  "
        f"p99={_fmt_ms(percentile(all_latencies, 99))}  "
        f"max={_fmt_ms(max(all_latencies) if all_latencies else None)}"
    )
    phases = summary.phases()
    if len(phases) > 1:
        out("  per phase (between plan generations):")
        for start, stop, version in phases:
            window = [
                e.latency_s for e in summary.deliveries if start <= e.t < stop
            ]
            out(
                f"    plan v{version:<3} [{start:8.1f}s, {stop:8.1f}s)  "
                f"n={len(window):>7}  "
                f"p50={_fmt_ms(percentile(window, 50))}  "
                f"p99={_fmt_ms(percentile(window, 99))}"
            )

    # --- reconfiguration timeline ---
    out("")
    if summary.plans:
        out(f"reconfiguration timeline ({len(summary.plans)} plan generations)")
        moved_by_version: Dict[int, List[MigrationStartEvent]] = defaultdict(list)
        for migration in summary.migrations:
            moved_by_version[migration.version].append(migration)
        for plan in summary.plans:
            settle = summary.settle_time(plan)
            settle_text = f"settled +{settle:.2f}s" if settle is not None else "no settle signal"
            details = [
                f"{migration.channel}: {','.join(migration.from_servers)}"
                f" -> {','.join(migration.to_servers)} ({migration.mode})"
                for migration in moved_by_version.get(plan.version, [])[:3]
            ]
            moved = len(plan.channels_changed)
            extra = f" +{moved - 3} more" if moved > 3 else ""
            flags = []
            if plan.spawn_requested:
                flags.append("spawn requested")
            if plan.decommissioned:
                flags.append(f"decommission {','.join(plan.decommissioned)}")
            flag_text = f"  [{'; '.join(flags)}]" if flags else ""
            out(
                f"  t={plan.t:8.2f}s  plan v{plan.version:<3} "
                f"{moved} channel(s) moved, {settle_text}{flag_text}"
            )
            for detail in details:
                out(f"             {detail}{extra and ''}")
            if extra:
                out(f"             ...{extra}")
        ready = [e for e in summary.events if isinstance(e, ServerReadyEvent)]
        gone = [e for e in summary.events if isinstance(e, DecommissionEvent)]
        if ready or gone:
            out(
                f"  elasticity: {len(ready)} server(s) spawned, "
                f"{len(gone)} decommissioned"
            )
    else:
        out("reconfiguration timeline: no plan generations recorded")

    # --- failure & recovery timeline ---
    if summary.fault_events:
        out("")
        out(f"failure & recovery timeline ({len(summary.fault_events)} fault events)")
        for event in summary.fault_events:
            out(f"  t={event.t:8.2f}s  {_fault_line(event)}")
        for watch in summary.recoveries():
            detect, repair, recovered = watch.detection_s, watch.repair_s, watch.recovery_s
            milestones = [
                f"detected +{detect:.2f}s" if detect is not None else "never detected",
                f"repaired +{repair:.2f}s" if repair is not None else "never repaired",
                f"{watch.failover_count} client failover(s)",
            ]
            if watch.failover_count:
                milestones.append(
                    f"slowest client delivering again +{recovered:.2f}s"
                    if recovered is not None
                    else "some client NEVER recovered"
                )
            out(
                f"  recovery of {watch.victim} (crashed t={watch.crash_t:.2f}s): "
                + ", ".join(milestones)
            )

    # --- SLA violation timeline ---
    episodes = summary.sla_timeline()
    if episodes:
        out("")
        out(render_sla_timeline(episodes, summary.duration))

    # --- per-server load ratios ---
    out("")
    series = summary.load_series()
    if series:
        out("per-server load ratio (window-averaged, one sample per eval tick)")
        ceiling = max(
            (ratio for points in series.values() for __, ratio in points), default=1.0
        )
        ceiling = max(ceiling, 1e-9)
        for server in sorted(series):
            values = [ratio for __, ratio in series[server]]
            out(
                f"  {server:<10} n={len(values):>5}  "
                f"min={min(values):5.2f}  mean={sum(values) / len(values):5.2f}  "
                f"max={max(values):5.2f}  {sparkline(values, ceiling=ceiling)}"
            )
    else:
        out("per-server load ratio: no load snapshots recorded")

    # --- fan-out cache ---
    cache = summary.fanout_cache_stats()
    if cache:
        out("")
        out("fan-out cache (per broker, end-of-run gauges)")
        for server in sorted(cache):
            g = cache[server]
            hits = g.get("hits", 0.0)
            builds = g.get("builds", 0.0)
            lookups = hits + builds
            rate = f"{hits / lookups:6.1%}" if lookups else "    --"
            out(
                f"  {server:<10} channels={g.get('channels', 0.0):>6.0f}  "
                f"hits={hits:>9.0f}  builds={builds:>6.0f}  "
                f"invalidations={g.get('invalidations', 0.0):>6.0f}  "
                f"hit-rate={rate}"
            )

    # --- hottest channels ---
    out("")
    hottest = summary.hottest_channels(top)
    if hottest:
        out(f"hottest channels (top {len(hottest)} by deliveries)")
        for channel, count, p99 in hottest:
            out(f"  {channel:<16} {count:>8} deliveries  p99={_fmt_ms(p99)}")
    else:
        out("hottest channels: no deliveries recorded")
    return "\n".join(lines)


def render_sla_timeline(episodes: List[Dict[str, Any]], end_t: float) -> str:
    """Human-readable SLA violation timeline (also used by ``sla``); the
    header is the overall scope's, an episode open at ``end_t`` lasting to it."""
    lines: List[str] = []
    out = lines.append
    if not episodes:
        out("SLA violations: none recorded")
        return "\n".join(lines)
    threshold = episodes[0]["threshold_s"]
    quantile = episodes[0]["quantile"]
    overall = [e for e in episodes if e["scope"] == OVERALL_SCOPE]
    total = sum((end_t if e["end_t"] is None else e["end_t"]) - e["start_t"] for e in overall)
    open_count = sum(1 for e in overall if e["end_t"] is None)
    out(
        f"SLA violations (windowed p{quantile:g} > {threshold * 1000:.0f}ms): "
        f"{len(overall)} overall episode(s), {total:.1f}s total"
        + (f", {open_count} still open" if open_count else "")
    )
    for episode in episodes:
        if episode["end_t"] is None:
            span = f"[{episode['start_t']:8.2f}s, ...     )  OPEN"
        else:
            span = (
                f"[{episode['start_t']:8.2f}s, {episode['end_t']:8.2f}s)  "
                f"{episode['duration_s']:6.2f}s"
            )
        out(
            f"  {episode['scope']:<18} {span}  "
            f"peak={_fmt_ms(episode['peak_s'])}"
        )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze Dynamoth flight-recorder traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary", help="print a run summary of a JSONL trace")
    p.add_argument("trace", help="path to a trace.jsonl file")
    p.add_argument("--top", type=int, default=5, help="hottest channels to list")
    p = sub.add_parser("sla", help="print the SLA-violation timeline")
    p.add_argument("trace", help="path to a trace.jsonl file")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def _load(path: str) -> List[TraceEvent]:
    return read_trace_segments(path)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        events = _load(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "summary":
            print(render_summary(TraceSummary(events), top=args.top))
        elif args.command == "sla":
            summary = TraceSummary(events)
            episodes = summary.sla_timeline()
            if args.json:
                print(json.dumps(episodes, indent=2, sort_keys=True))
            else:
                print(render_sla_timeline(episodes, summary.duration))
    except BrokenPipeError:  # e.g. piped into head; not an error
        return 0
    return 0
