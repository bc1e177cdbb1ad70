"""Event tracing: the flight recorder's raw, typed timeline.

A :class:`Tracer` collects cheap timestamped dataclass events emitted by
every layer of the stack -- the publication lifecycle (publish, broker
fan-out, delivery with hop latency), control-plane actions (load reports,
plan generation and pushes, migrations starting and settling, elasticity)
and client lifecycle (subscribe/unsubscribe, plan-miss fallbacks).

The default everywhere is :data:`NULL_TRACER`, a :class:`NullTracer` whose
``enabled`` flag is ``False``.  Instrumented hot paths guard event
construction behind that flag::

    tr = self._tracer
    if tr.enabled:
        tr.emit(DeliveryEvent(...))

so an untraced run performs one attribute check per hook and allocates
nothing.  Tracing never touches any RNG stream or schedules simulator
events, which keeps traced and untraced runs bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


def channel_class(channel: str) -> str:
    """Low-cardinality label for a channel name.

    The namespace prefix before the first ``:`` (``tile:3:4`` -> ``tile``),
    with any trailing digits stripped so unprefixed families like
    ``room17`` collapse to ``room``.
    """
    prefix = channel.split(":", 1)[0]
    stripped = prefix.rstrip("0123456789")
    return stripped if stripped else prefix


@functools.cache
def field_names(cls: Type["TraceEvent"]) -> Tuple[str, ...]:
    """An event class's field names in declaration order, derived once."""
    return tuple(f.name for f in fields(cls))


@dataclass
class TraceEvent:
    """Base event: every record carries the virtual timestamp ``t``."""

    TYPE = "event"

    t: float

    def to_dict(self) -> Dict[str, Any]:
        """The event as a JSON-ready dict: what a reader gets back.

        The writer does not come through here (it uses the per-class line
        encoders of :mod:`repro.obs.export`); tests hold the two equal.
        """
        out: Dict[str, Any] = {"type": self.TYPE}
        for name in field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                # Fields grown with a default after a schema bump may be
                # absent from older traces; required fields still raise.
                if f.default is not MISSING:
                    continue
                if f.default_factory is not MISSING:
                    continue
                raise KeyError(f.name)
            value = data[f.name]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[f.name] = value
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Data-plane events (publication lifecycle)
# ----------------------------------------------------------------------
@dataclass
class PublishEvent(TraceEvent):
    """A client handed a publication to the broker layer."""

    TYPE = "publish"

    msg_id: str
    channel: str
    sender: str
    plan_version: int
    targets: Tuple[str, ...]
    payload_size: int


@dataclass
class FanoutEvent(TraceEvent):
    """A broker finished processing a publication and fanned it out."""

    TYPE = "fanout"

    server: str
    channel: str
    msg_id: Optional[str]
    fanout: int
    wire_bytes: int


@dataclass
class DeliveryEvent(TraceEvent):
    """A client received a (non-duplicate) application publication."""

    TYPE = "delivery"

    client: str
    channel: str
    msg_id: str
    sender: str
    latency_s: float
    plan_version: int
    #: Broker that fanned out the delivery (schema 3; "" in older traces).
    server: str = ""


# ----------------------------------------------------------------------
# Client lifecycle events
# ----------------------------------------------------------------------
@dataclass
class SubscribeEvent(TraceEvent):
    TYPE = "subscribe"

    client: str
    channel: str
    servers: Tuple[str, ...]


@dataclass
class UnsubscribeEvent(TraceEvent):
    TYPE = "unsubscribe"

    client: str
    channel: str


@dataclass
class PlanMissEvent(TraceEvent):
    """A client had no plan entry and fell back to consistent hashing."""

    TYPE = "plan_miss"

    client: str
    channel: str
    server: str


# ----------------------------------------------------------------------
# Control-plane events
# ----------------------------------------------------------------------
@dataclass
class LoadReportEvent(TraceEvent):
    """The balancer ingested one LLA report."""

    TYPE = "load_report"

    server: str
    load_ratio: float
    cpu_utilization: float
    channel_count: int


@dataclass
class LoadSnapshotEvent(TraceEvent):
    """One balancer evaluation tick: window-averaged LR per active server."""

    TYPE = "load_snapshot"

    ratios: Dict[str, float]


@dataclass
class PlanGeneratedEvent(TraceEvent):
    """The balancer produced a new plan version."""

    TYPE = "plan_generated"

    version: int
    channels_changed: Tuple[str, ...]
    decommissioned: Tuple[str, ...]
    spawn_requested: bool


@dataclass
class PlanPushedEvent(TraceEvent):
    TYPE = "plan_pushed"

    version: int
    recipients: Tuple[str, ...]


@dataclass
class MigrationStartEvent(TraceEvent):
    """One channel's mapping changed in a new plan."""

    TYPE = "migration_start"

    version: int
    channel: str
    from_servers: Tuple[str, ...]
    to_servers: Tuple[str, ...]
    mode: str


@dataclass
class MigrationSettledEvent(TraceEvent):
    """An old server drained: no unreconciled subscriber remains on it."""

    TYPE = "migration_settled"

    channel: str
    server: str


@dataclass
class SpawnRequestEvent(TraceEvent):
    TYPE = "spawn_request"


@dataclass
class ServerReadyEvent(TraceEvent):
    TYPE = "server_ready"

    server: str


@dataclass
class DecommissionEvent(TraceEvent):
    TYPE = "decommission"

    server: str


@dataclass
class PlanAppliedEvent(TraceEvent):
    """A dispatcher adopted a pushed plan version."""

    TYPE = "plan_applied"

    node: str
    version: int


@dataclass
class SwitchNoticeEvent(TraceEvent):
    """A dispatcher published a switch notice to migrate subscribers."""

    TYPE = "switch_notice"

    server: str
    channel: str
    version: int


# ----------------------------------------------------------------------
# Fault-injection & recovery events (repro.faults subsystem)
# ----------------------------------------------------------------------
@dataclass
class ServerCrashEvent(TraceEvent):
    """A pub/sub server (and its co-located LLA/dispatcher) hard-crashed."""

    TYPE = "server_crash"

    server: str


@dataclass
class ServerRestartEvent(TraceEvent):
    """A crashed server was restarted (fresh state, same node id)."""

    TYPE = "server_restart"

    server: str


@dataclass
class PartitionEvent(TraceEvent):
    """A network partition was injected between two node groups."""

    TYPE = "partition"

    a: str
    b: str


@dataclass
class PartitionHealedEvent(TraceEvent):
    TYPE = "partition_healed"

    a: str
    b: str


@dataclass
class LinkFaultEvent(TraceEvent):
    """Loss/jitter injected on (or cleared from, when both are 0) a link."""

    TYPE = "link_fault"

    a: str
    b: str
    loss: float
    jitter_s: float


@dataclass
class LlaStallEvent(TraceEvent):
    """An LLA's report stream was stalled (or resumed, stalled=False)."""

    TYPE = "lla_stall"

    server: str
    stalled: bool


@dataclass
class ServerSuspectEvent(TraceEvent):
    """The balancer's heartbeat monitor suspects a silent server."""

    TYPE = "server_suspect"

    server: str
    silence_s: float


@dataclass
class ServerFailureConfirmedEvent(TraceEvent):
    """The suspicion window elapsed: the server is considered dead."""

    TYPE = "server_failure_confirmed"

    server: str
    silence_s: float


@dataclass
class ServerResurrectedEvent(TraceEvent):
    """A confirmed-failed server resumed reporting and was re-admitted."""

    TYPE = "server_resurrected"

    server: str


@dataclass
class PlanRepairStartEvent(TraceEvent):
    """The balancer begins re-homing a dead server's channels."""

    TYPE = "plan_repair_start"

    server: str
    channels: Tuple[str, ...]


@dataclass
class PlanRepairDoneEvent(TraceEvent):
    """The repair plan was generated and pushed to all live dispatchers."""

    TYPE = "plan_repair_done"

    server: str
    version: int


@dataclass
class ClientFailoverEvent(TraceEvent):
    """A client declared a server dead and began failing over."""

    TYPE = "client_failover"

    client: str
    server: str
    channels: Tuple[str, ...]


@dataclass
class ClientReconnectEvent(TraceEvent):
    """A recovering client re-established a subscription (acked)."""

    TYPE = "client_reconnect"

    client: str
    channel: str
    servers: Tuple[str, ...]
    attempts: int


# ----------------------------------------------------------------------
# Reliable-delivery events (schema 3, repro.core.reliability)
# ----------------------------------------------------------------------
@dataclass
class ReplayEvent(TraceEvent):
    """A broker replayed a cached sequence range to one client."""

    TYPE = "replay"

    server: str
    channel: str
    client: str
    epoch: int
    from_seq: int
    to_seq: int
    messages: int
    bytes: int


@dataclass
class ReplayGapEvent(TraceEvent):
    """Cache eviction made part of a requested replay range unrecoverable."""

    TYPE = "gap_unrecoverable"

    server: str
    channel: str
    client: str
    epoch: int
    from_seq: int
    to_seq: int


@dataclass
class CausalTimeoutEvent(TraceEvent):
    """A parked out-of-order delivery hit the causal park timeout and the
    channel was force-flushed in arrival order."""

    TYPE = "causal_timeout"

    client: str
    channel: str
    flushed: int


# ----------------------------------------------------------------------
# Live SLA monitor events (schema 3, repro.obs.sla)
# ----------------------------------------------------------------------
@dataclass
class SlaViolationStartEvent(TraceEvent):
    """A scope's windowed delivery-latency quantile crossed the threshold."""

    TYPE = "sla_violation_start"

    scope: str  #: "overall", "channel:<class>" or "server:<id>"
    quantile: float
    threshold_s: float
    value_s: float
    window_count: int


@dataclass
class SlaViolationEndEvent(TraceEvent):
    """The scope's windowed quantile dropped back under the threshold."""

    TYPE = "sla_violation_end"

    scope: str
    duration_s: float
    peak_s: float  #: worst windowed quantile value seen during the episode


@dataclass
class SlaWindowEvent(TraceEvent):
    """Periodic per-scope sliding-window latency stats (one per slice)."""

    TYPE = "sla_window"

    scope: str
    window_count: int
    p50_s: Optional[float]
    value_s: Optional[float]  #: the SLA quantile (p95 by default)
    max_s: Optional[float]
    violating: bool


# ----------------------------------------------------------------------
# Deterministic sim-profiler events (schema 3, repro.obs.profile)
# ----------------------------------------------------------------------
@dataclass
class ProfileEvent(TraceEvent):
    """End-of-run profiler snapshot: per-subsystem/site counts + sim time."""

    TYPE = "profile"

    data: Dict[str, Any] = field(default_factory=dict)


@dataclass
class MetricsEvent(TraceEvent):
    """A metrics-registry snapshot embedded in the trace (usually last)."""

    TYPE = "metrics"

    data: Dict[str, Any] = field(default_factory=dict)


#: type tag -> event class, for the JSONL loader.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.TYPE: cls
    for cls in (
        PublishEvent,
        FanoutEvent,
        DeliveryEvent,
        SubscribeEvent,
        UnsubscribeEvent,
        PlanMissEvent,
        LoadReportEvent,
        LoadSnapshotEvent,
        PlanGeneratedEvent,
        PlanPushedEvent,
        MigrationStartEvent,
        MigrationSettledEvent,
        SpawnRequestEvent,
        ServerReadyEvent,
        DecommissionEvent,
        PlanAppliedEvent,
        SwitchNoticeEvent,
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
        ReplayEvent,
        ReplayGapEvent,
        CausalTimeoutEvent,
        SlaViolationStartEvent,
        SlaViolationEndEvent,
        SlaWindowEvent,
        ProfileEvent,
        MetricsEvent,
    )
}


#: A live per-event callback (:meth:`Tracer.add_observer`).
Observer = Callable[[TraceEvent], None]


class FirstUse(Dict[Any, Any]):
    """``key -> value``, resolved by ``resolve(key)`` on the key's first use.

    The traced hot paths (a delivery, a publication, a tapped send) look
    their instruments up here: a hit is one C dict probe, so
    :func:`channel_class` and the registry lookups run once per channel or
    node, not once per message -- and a key that is never used still
    registers nothing, so the metrics trailer is what per-call lookups
    would have written.  :meth:`Tracer.emit` finds an event class's
    observers the same way.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve: Callable[[Any], Any]) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self._resolve(key)
        return value


class Tracer:
    """Collects trace events and owns the shared metrics registry.

    One tracer is shared by every component of a cluster; experiments query
    ``tracer.events`` / ``tracer.metrics`` afterwards or export them with
    :mod:`repro.obs.export`.

    Three optional attachments extend the buffered default:

    * ``sink`` -- a :class:`repro.obs.sink.TraceSink` receiving every event
      as it is emitted.  When a sink is set, in-memory buffering defaults
      to *off* (``keep_events=False``) so multi-million-event runs hold
      O(sink chunk) events rather than the whole timeline; pass
      ``keep_events=True`` to tee (stream *and* buffer, e.g. for oracles).
    * observers -- live per-event callbacks (:meth:`add_observer`), used by
      the SLA monitor and the chaos recovery watcher, each called for the
      event classes it asked for.  Observers run after the event is
      recorded, so anything they emit re-entrantly lands after the
      triggering event in both buffered and streamed output.
    * ``profiler`` -- a :class:`repro.obs.profile.SimProfiler`; attached to
      the kernel by :meth:`attach_kernel` and fed by the message tap.
    """

    #: Hot paths check this before constructing any event.
    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        *,
        sink: Optional[Any] = None,
        keep_events: Optional[bool] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        if keep_events is None:
            keep_events = sink is None
        if sink is None and not keep_events:
            raise ValueError("a tracer without a sink must keep events")
        self.events: List[TraceEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sink = sink
        self.profiler = profiler
        #: Timestamp of the most recently emitted event (streaming-safe
        #: replacement for ``events[-1].t`` when buffering is off).
        self.last_t: float = 0.0
        self._keep = keep_events
        #: ``(observer, the event classes it asked for)`` in registration
        #: order; ``emit`` reads the per-class resolution of it.
        self._observers: List[Tuple[Observer, Tuple[Type[TraceEvent], ...]]] = []
        #: event class -> the observers it goes to, in registration order.
        self._observers_of = FirstUse(self._resolve_observers)
        #: Instruments of the client-side hot paths, bound on first use.
        #: Held here, not by the clients that feed them: one dict per run,
        #: not one per client.
        #: ``channel -> (delivery_latency_s{channel_class}, deliveries_received_total)``
        self.delivery_instruments = FirstUse(self._delivery_instruments)
        #: ``channel -> publications_total{channel_class}``
        self.publication_counters = FirstUse(self._publication_counter)
        #: ``channel -> plan_miss_total{channel_class}``
        self.plan_miss_counters = FirstUse(self._plan_miss_counter)
        #: ``node -> (messages_sent_total{node}, bytes_sent_total{node})``
        self._tap_counters = FirstUse(self._tap_counter_pair)
        #: Kernel whose event count and clock the registry pulls, and the
        #: part of its ``events_processed`` already counted.
        self._kernel: Optional[Any] = None
        self._kernel_counted = 0

    @property
    def events_kept(self) -> bool:
        """Whether emitted events are buffered in :attr:`events`."""
        return self._keep

    def add_observer(self, observer: Observer, *event_types: Type[TraceEvent]) -> None:
        """Register a live callback for events of exactly ``event_types``.

        No types means every event.  An event's observers are called in
        registration order; one added mid-run is honoured from the next
        emit.
        """
        self._observers.append((observer, event_types))
        self._observers_of.clear()

    def _resolve_observers(self, cls: Type[TraceEvent]) -> Tuple[Observer, ...]:
        return tuple(
            observer for observer, types in self._observers if not types or cls in types
        )

    def emit(self, event: TraceEvent) -> None:
        if event.t > self.last_t:
            self.last_t = event.t
        if self._keep:
            self.events.append(event)
        sink = self.sink
        if sink is not None:
            sink.emit(event)
        for observer in self._observers_of[type(event)]:
            observer(event)

    def events_of(self, event_type: Type[TraceEvent]) -> List[TraceEvent]:
        return [e for e in self.events if type(e) is event_type]

    # ------------------------------------------------------------------
    # Taps (aggregate-only hooks for very hot paths)
    # ------------------------------------------------------------------
    def message_tap(self, src_id: str, dst_id: str, message: Any, size_bytes: int) -> None:
        """Per-message actor tap: counts sends without recording events."""
        messages, sent_bytes = self._tap_counters[src_id]
        messages.value += 1.0
        sent_bytes.value += size_bytes
        profiler = self.profiler
        if profiler is not None:
            profiler.count_message(type(message).__name__, size_bytes)

    def _delivery_instruments(self, channel: str) -> Tuple[Histogram, Counter]:
        metrics = self.metrics
        return (
            metrics.histogram("delivery_latency_s", channel_class=channel_class(channel)),
            # Single global counter so streaming runs (which keep no event
            # buffer to count DeliveryEvents in) still report totals.
            metrics.counter("deliveries_received_total"),
        )

    def _publication_counter(self, channel: str) -> Counter:
        return self.metrics.counter("publications_total", channel_class=channel_class(channel))

    def _plan_miss_counter(self, channel: str) -> Counter:
        return self.metrics.counter("plan_miss_total", channel_class=channel_class(channel))

    def _tap_counter_pair(self, node_id: str) -> Tuple[Counter, Counter]:
        metrics = self.metrics
        return (
            metrics.counter("messages_sent_total", node=node_id),
            metrics.counter("bytes_sent_total", node=node_id),
        )

    def attach_kernel(self, sim: Any) -> None:
        """Follow ``sim``: its events count into ``sim_events_total`` and
        its clock into ``sim_clock_s``.

        Nothing runs per kernel event.  The kernel already holds both
        numbers, so the registry pulls them when it is read.  A
        tracer follows one kernel at a time: attaching the next one (an
        experiment building a cluster per load level) first settles the
        previous one's totals.
        """
        if self._kernel is None:
            self.metrics.add_collector(self._collect_kernel)
        else:
            self._collect_kernel()
        self._kernel = sim
        self._kernel_counted = sim.events_processed
        if self.profiler is not None:
            sim.profiler = self.profiler

    def _collect_kernel(self) -> None:
        """Registry collector: count the kernel events executed since the
        last collection and note the time of the latest one."""
        sim = self._kernel
        assert sim is not None
        executed = sim.events_processed - self._kernel_counted
        self._kernel_counted += executed
        self.metrics.counter("sim_events_total").inc(executed)
        clock = self.metrics.gauge("sim_clock_s")
        if executed:
            clock.set(sim.last_event_time)


class NullTracer(Tracer):
    """Recording disabled: every hook is a no-op behind the flag check."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - guarded out
        pass

    def message_tap(self, src_id: str, dst_id: str, message: Any, size_bytes: int) -> None:
        pass  # pragma: no cover - never wired up

    def attach_kernel(self, sim: Any) -> None:
        pass


#: Shared default: components fall back to this when no tracer is wired in.
NULL_TRACER = NullTracer()
