"""Scenario definition and the deterministic harness that runs one.

A :class:`Scenario` is a frozen, JSON-serializable value: everything a run
needs -- workload shape, fault schedule, tunables and the seed -- lives in
it, so the same scenario always produces the byte-identical trace.  The
harness drives all workload decisions from the cluster's own RNG registry
(stream ``"check-workload"``) and records nothing of its own: the run's
trace is the record.  :class:`TraceView` reads from it, in one pass, what
the oracles check:

* every event, filed under its class: ``view.of(ArrivalEvent)`` is every
  sequenced delivery off the wire, before dedup, and
  ``view.of(ServerSubscribeEvent)`` every SUBSCRIBE a broker processed,
  on servers spawned or restarted mid-run too;
* every application-level delivery (``delivery`` events, one per
  non-duplicate delivery) and, for causally stamped publications, the
  ``publish`` event it delivers;
* the intervals each (client, channel) pair was subscribed
  (``subscribe`` / ``unsubscribe``).

Runs end with a *settle phase*: faults stop, the network heals, churn
stops, and publishers rotate one publication over every channel so plan
knowledge propagates -- the window the convergence oracles assert over.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type, TypeVar, cast

from repro.core.cluster import DynamothCluster
from repro.core.config import DELIVERY_TIERS, DynamothConfig
from repro.core.dispatcher import Dispatcher
from repro.core.plan import Plan
from repro.core.reliability import BrokerReliability
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    ChaosSchedule,
    FaultAction,
    action_from_dict,
    action_to_dict,
)
from repro.obs.export import render
from repro.obs.trace import (
    DeliveryEvent,
    PublishEvent,
    SubscribeEvent,
    TraceEvent,
    Tracer,
    UnsubscribeEvent,
)

#: grace before the end of the run during which nothing publishes, so the
#: last publications can still be delivered inside the horizon.
PUBLISH_TAIL_S = 3.0
#: how long a churned-out subscriber stays away before resubscribing.
CHURN_OFF_S = 1.5


class ScenarioFormatError(ValueError):
    """Text that cannot be read as a :class:`Scenario`; a one-line message."""


@dataclass(frozen=True)
class Scenario:
    """One self-contained property-test scenario (JSON round-trippable)."""

    seed: int
    label: str = "manual"
    horizon_s: float = 30.0
    #: length of the fault-free convergence window ending the run
    settle_s: float = 12.0
    initial_servers: int = 3
    channels: int = 4
    subscribers: int = 6
    publishers: int = 3
    publish_interval_s: float = 0.5
    payload_size: int = 64
    #: extra probability mass on channel 0 (0 = uniform)
    hot_channel_bias: float = 0.0
    #: time everyone floods channel 0 (0 = no flash crowd)
    flash_crowd_at_s: float = 0.0
    #: subscriber churn period (0 = no churn); churn stops at settle
    churn_interval_s: float = 0.0
    t_wait_s: float = 6.0
    plan_entry_timeout_s: float = 8.0
    faults: Tuple[FaultAction, ...] = ()
    #: test-only: disable the dispatcher's repair-buffer replay so the
    #: oracles can be shown to catch a real loss bug
    break_repair_replay: bool = False
    #: delivery guarantee the run executes under (the scenario-grid axis
    #: of the delivery-guarantee testbed)
    delivery_tier: str = "at_most_once"
    #: per-channel causal ordering (only meaningful on reliable tiers)
    causal_order: bool = False
    #: test-only: disable the broker's replay path (sequencing stays on)
    #: so the gap-free oracle can be shown to catch silent loss
    break_reliable_replay: bool = False

    def __post_init__(self) -> None:
        if self.horizon_s <= self.settle_s:
            raise ValueError("horizon_s must exceed settle_s")
        if min(self.channels, self.subscribers, self.publishers) < 1:
            raise ValueError("need at least one channel, subscriber and publisher")
        if self.publish_interval_s <= 0:
            raise ValueError("publish_interval_s must be positive")
        if self.delivery_tier not in DELIVERY_TIERS:
            raise ValueError(f"delivery_tier must be one of {DELIVERY_TIERS}")

    # ------------------------------------------------------------------
    # Derived naming (client ids must not collide with "pubN" servers)
    # ------------------------------------------------------------------
    @property
    def settle_start_s(self) -> float:
        return self.horizon_s - self.settle_s

    def channel_names(self) -> List[str]:
        return [f"room:{i}" for i in range(self.channels)]

    def subscriber_ids(self) -> List[str]:
        return [f"reader{i}" for i in range(self.subscribers)]

    def publisher_ids(self) -> List[str]:
        return [f"writer{i}" for i in range(self.publishers)]

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "label": self.label,
            "horizon_s": self.horizon_s,
            "settle_s": self.settle_s,
            "initial_servers": self.initial_servers,
            "channels": self.channels,
            "subscribers": self.subscribers,
            "publishers": self.publishers,
            "publish_interval_s": self.publish_interval_s,
            "payload_size": self.payload_size,
            "hot_channel_bias": self.hot_channel_bias,
            "flash_crowd_at_s": self.flash_crowd_at_s,
            "churn_interval_s": self.churn_interval_s,
            "t_wait_s": self.t_wait_s,
            "plan_entry_timeout_s": self.plan_entry_timeout_s,
            "faults": [action_to_dict(a) for a in self.faults],
            "break_repair_replay": self.break_repair_replay,
            "delivery_tier": self.delivery_tier,
            "causal_order": self.causal_order,
            "break_reliable_replay": self.break_reliable_replay,
        }
        return out

    @classmethod
    def from_dict(cls, data: object, source: str = "<scenario>") -> "Scenario":
        """Parsed JSON in, scenario out -- or one :class:`ScenarioFormatError`
        naming ``source`` and the key (or index into ``faults``) at fault."""
        if not isinstance(data, dict):
            raise ScenarioFormatError(f"{source}: not a JSON object: {type(data).__name__}")
        if "seed" not in data:
            raise ScenarioFormatError(f"{source}: missing key 'seed'")
        for name, value in data.items():
            expected = _FIELD_TYPES.get(name)
            if expected is None:
                raise ScenarioFormatError(f"{source}: unknown key {name!r}")
            if type(value) not in expected:
                wanted = " or ".join(t.__name__ for t in expected)
                got = f"{type(value).__name__} {value!r}"
                raise ScenarioFormatError(f"{source}: {name!r} must be {wanted}, got {got}")
        faults: List[FaultAction] = []
        for action in data.get("faults", ()):
            try:
                faults.append(action_from_dict(action))
            except (ValueError, TypeError, AttributeError) as exc:
                raise ScenarioFormatError(f"{source}: faults[{len(faults)}]: {exc}") from exc
        try:
            return cls(**{**data, "faults": tuple(faults)})
        except ValueError as exc:  # a value ``__post_init__`` rejects
            raise ScenarioFormatError(f"{source}: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, source: str = "<scenario>") -> "Scenario":
        """Inverse of :meth:`to_json`; ``source`` names the file in errors."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ScenarioFormatError(f"{source}: not JSON: {exc}") from exc
        return cls.from_dict(data, source)


#: JSON types each :class:`Scenario` key accepts (an integer reads as a float)
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}
_FIELD_TYPES = {f.name: _JSON_TYPES.get(str(f.type), (list,)) for f in fields(Scenario)}


# ----------------------------------------------------------------------
# What the oracles read: one view of the run's trace
# ----------------------------------------------------------------------
E = TypeVar("E", bound=TraceEvent)


@dataclass
class TraceView:
    """The facts the oracles check, read off the trace in one pass."""

    #: (t, client, channel, msg_id) per application-level delivery
    deliveries: List[Tuple[float, str, str, str]] = field(default_factory=list)
    #: app-visible delivery multiplicity (at-most-once oracle input)
    delivery_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (client, channel) -> [start, end] subscription intervals
    sub_intervals: Dict[Tuple[str, str], List[List[float]]] = field(default_factory=dict)
    #: each delivery of a causally stamped publication, with that
    #: publication (causal-order oracle input)
    causal: List[Tuple[DeliveryEvent, PublishEvent]] = field(default_factory=list)
    #: event class -> its events in trace order (read through :meth:`of`)
    by_class: Dict[Type[TraceEvent], List[TraceEvent]] = field(default_factory=dict)

    @classmethod
    def read(cls, events: Iterable[TraceEvent], horizon: float) -> "TraceView":
        """Build the view; subscriptions still open end at ``horizon``.

        A ``SubscribeEvent`` opens an interval unless one is open (a
        reconnect re-subscribes a channel the client still holds), and an
        ``UnsubscribeEvent`` closes it.
        """
        view = cls()
        counts, intervals = view.delivery_counts, view.sub_intervals
        by_class = view.by_class
        publications: Dict[str, PublishEvent] = {}
        for event in events:
            kind = type(event)
            filed = by_class.get(kind)
            if filed is None:
                filed = by_class[kind] = []
            filed.append(event)
            if kind is DeliveryEvent:
                view.deliveries.append((event.t, event.client, event.channel, event.msg_id))
                key = (event.client, event.msg_id)
                counts[key] = counts.get(key, 0) + 1
                publication = publications.get(event.msg_id)
                if publication is not None and publication.pub_seq > 0:
                    view.causal.append((event, publication))
            elif kind is PublishEvent:
                publications[event.msg_id] = event
            elif kind is SubscribeEvent:
                held = intervals.setdefault((event.client, event.channel), [])
                if not held or held[-1][1] != math.inf:
                    held.append([event.t, math.inf])
            elif kind is UnsubscribeEvent:
                held = intervals.get((event.client, event.channel))
                if held and held[-1][1] == math.inf:
                    held[-1][1] = event.t
        for held in intervals.values():
            if held and held[-1][1] == math.inf:
                held[-1][1] = horizon
        return view

    def of(self, event_class: Type[E]) -> List[E]:
        """Every event of exactly ``event_class``, in trace order."""
        return cast(List[E], self.by_class.get(event_class, []))

    def covers(self, client: str, channel: str, start: float, end: float) -> bool:
        """Whether the pair was continuously subscribed over [start, end]."""
        for lo, hi in self.sub_intervals.get((client, channel), ()):
            if lo <= start and end <= hi:
                return True
        return False


@dataclass
class RunResult:
    """Everything the oracles need from one finished scenario run."""

    scenario: Scenario
    cluster: DynamothCluster
    tracer: Tracer
    #: the injector's concrete (expanded) fault timeline
    fault_timeline: Tuple[FaultAction, ...]

    @cached_property
    def view(self) -> TraceView:
        """The trace, read once for the oracles."""
        return TraceView.read(self.tracer.events, self.scenario.horizon_s)

    @property
    def plan_history(self) -> List[Tuple[float, Plan]]:
        if self.cluster.balancer is not None:
            return self.cluster.balancer.plan_history
        return [(0.0, self.cluster.plan)]

    @property
    def final_plan(self) -> Plan:
        return self.cluster.current_plan()

    def trace_bytes(self) -> bytes:
        """The JSONL trace body (no header); byte-identical across replays."""
        return ("\n".join(render(self.tracer.events)) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class _Workload:
    """Mutable driver state for one run (all decisions from ``wl`` RNG)."""

    def __init__(self, scenario: Scenario, cluster: DynamothCluster):
        self.scenario = scenario
        self.cluster = cluster
        self.sim = cluster.sim
        self.wl = cluster.rng.stream("check-workload")
        self.channels = scenario.channel_names()
        self.flash_active = False
        self.churn_cursor = 0
        self.settle_cursor: Dict[str, int] = {}
        self.stop_publish_at = scenario.horizon_s - PUBLISH_TAIL_S

    # --- subscriptions ------------------------------------------------
    def subscribed_channels(self, client_id: str) -> List[str]:
        client = self.cluster.clients[client_id]
        return sorted(c for c in self.channels if client.is_subscribed(c))

    # --- publishing ---------------------------------------------------
    def pick_channel(self) -> str:
        if self.flash_active:
            if self.wl.random() < 0.9:
                return self.channels[0]
        elif self.scenario.hot_channel_bias > 0.0:
            if self.wl.random() < self.scenario.hot_channel_bias:
                return self.channels[0]
        return self.channels[self.wl.randrange(len(self.channels))]

    def publish_tick(self, writer_id: str) -> None:
        now = self.sim.now
        if now >= self.stop_publish_at:
            return
        client = self.cluster.clients.get(writer_id)
        if client is None:
            return
        if now >= self.scenario.settle_start_s:
            # Settle rotation: every channel gets fresh traffic so plan
            # entries refresh and convergence notices reach everyone.
            cursor = self.settle_cursor.get(writer_id, 0)
            channel = self.channels[cursor % len(self.channels)]
            self.settle_cursor[writer_id] = cursor + 1
        else:
            channel = self.pick_channel()
        client.publish(channel, f"{writer_id}@{now:.3f}", self.scenario.payload_size)
        interval = self.scenario.publish_interval_s
        if self.flash_active and now < self.scenario.settle_start_s:
            interval *= 0.25
        delay = interval * (0.8 + 0.4 * self.wl.random())
        self.sim.schedule(delay, self.publish_tick, writer_id)

    # --- workload shape events ----------------------------------------
    def flash_crowd(self) -> None:
        self.flash_active = True
        for reader_id in self.scenario.subscriber_ids():
            client = self.cluster.clients.get(reader_id)
            if client is not None and not client.is_subscribed(self.channels[0]):
                client.subscribe(self.channels[0])

    def churn_tick(self) -> None:
        now = self.sim.now
        if now >= self.scenario.settle_start_s - CHURN_OFF_S - 0.5:
            return  # churned-out readers must be back before settle
        readers = self.scenario.subscriber_ids()
        reader_id = readers[self.churn_cursor % len(readers)]
        self.churn_cursor += 1
        held = self.subscribed_channels(reader_id)
        if held:
            channel = held[self.wl.randrange(len(held))]
            self.cluster.clients[reader_id].unsubscribe(channel)
            self.sim.schedule(CHURN_OFF_S, self.churn_rejoin, reader_id, channel)
        self.sim.schedule(self.scenario.churn_interval_s, self.churn_tick)

    def churn_rejoin(self, reader_id: str, channel: str) -> None:
        client = self.cluster.clients.get(reader_id)
        if client is not None and not client.is_subscribed(channel):
            client.subscribe(channel)


#: ``Scenario`` flag -> (class, method, broken stand-in): the real loss
#: bugs the harness can plant.  The first parks the repair buffer's
#: messages and drops them; the second keeps brokers stamping sequence
#: numbers but ignores every replay/resume request *silently* (no gap
#: notice either).
_PLANTABLE_BUGS = {
    "break_repair_replay": (
        Dispatcher,
        "_flush_repair_buffer",
        lambda dispatcher, channel: dispatcher._repair_buffers.pop(channel, None),
    ),
    "break_reliable_replay": (
        BrokerReliability,
        "replay_slice",
        lambda reliability, channel, epoch, seqs: None,
    ),
}


@contextmanager
def _planted_bugs(scenario: Scenario) -> Iterator[None]:
    """Apply the scenario's ``break_*`` flags for the duration of one run.

    The product has no switch for either bug; the harness replaces the
    method at class level, so servers spawned or restarted mid-run are
    broken too.
    """
    planted = [bug for flag, bug in _PLANTABLE_BUGS.items() if getattr(scenario, flag)]
    originals = [(cls, name, getattr(cls, name)) for cls, name, _ in planted]
    try:
        for cls, name, broken in planted:
            setattr(cls, name, broken)
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


def run_scenario(
    scenario: Scenario, *, tracer: Optional[Tracer] = None
) -> RunResult:
    """Run one scenario deterministically and return its ground truth.

    A caller-supplied ``tracer`` (e.g. one teeing into a streaming sink)
    must keep event buffering on: the oracles read ``tracer.events``.
    """
    with _planted_bugs(scenario):
        return _run_scenario(scenario, tracer)


def _run_scenario(scenario: Scenario, tracer: Optional[Tracer]) -> RunResult:
    config = DynamothConfig(
        t_wait_s=scenario.t_wait_s,
        plan_entry_timeout_s=scenario.plan_entry_timeout_s,
        # Recovery needs client-side liveness probing; the mark TTL must
        # outlive the run so a failed-over client never walks back into a
        # dead server mid-scenario.
        client_ping_interval_s=1.0,
        failed_server_ttl_s=600.0,
        # The load window must outlive the heartbeat confirmation delay
        # (suspect + confirm = 5s): otherwise a dead server's channel
        # loads are pruned before the repair plan is generated, and
        # repair never re-homes anything (nor arms the repair buffer).
        load_window_s=8.0,
        delivery_tier=scenario.delivery_tier,
        causal_order=scenario.causal_order,
    )
    if tracer is None:
        tracer = Tracer()
    elif not tracer.events_kept:
        raise ValueError("run_scenario needs a buffering tracer (oracles read events)")
    cluster = DynamothCluster(
        seed=scenario.seed,
        config=config,
        initial_servers=scenario.initial_servers,
        tracer=tracer,
    )
    injector: Optional[FaultInjector] = None
    timeline: Tuple[FaultAction, ...] = ()
    if scenario.faults:
        injector = FaultInjector(cluster, ChaosSchedule(tuple(scenario.faults)))
        injector.arm()
        timeline = tuple(injector.timeline)

    workload = _Workload(scenario, cluster)
    for reader_id in scenario.subscriber_ids():
        reader = cluster.create_client(reader_id)
        count = 1 + workload.wl.randrange(min(3, scenario.channels))
        for channel in sorted(workload.wl.sample(workload.channels, count)):
            reader.subscribe(channel)
    for writer_id in scenario.publisher_ids():
        cluster.create_client(writer_id)
        # Stagger the first publications so writers do not tick in lockstep.
        cluster.sim.schedule(
            0.5 + workload.wl.random() * scenario.publish_interval_s,
            workload.publish_tick,
            writer_id,
        )

    if scenario.flash_crowd_at_s > 0.0:
        cluster.sim.schedule(scenario.flash_crowd_at_s, workload.flash_crowd)
    if scenario.churn_interval_s > 0.0:
        cluster.sim.schedule(scenario.churn_interval_s, workload.churn_tick)

    def enter_settle() -> None:
        if injector is not None:
            injector.heal_network()

    cluster.sim.schedule(scenario.settle_start_s, enter_settle)
    cluster.run_until(scenario.horizon_s)
    return RunResult(scenario, cluster, tracer, timeline)


def with_break(scenario: Scenario, broken: bool = True) -> Scenario:
    """The same scenario with the repair-replay kill switch toggled."""
    return replace(scenario, break_repair_replay=broken)


def with_reliable_break(scenario: Scenario, broken: bool = True) -> Scenario:
    """The same scenario with the reliable-replay kill switch toggled."""
    return replace(scenario, break_reliable_replay=broken)
