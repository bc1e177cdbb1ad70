"""The Dynamoth client library.

Exposes the standard pub/sub API (``subscribe`` / ``unsubscribe`` /
``publish``) while hiding the plan machinery:

* maintains a *partial local plan* -- only the channels this client
  actually uses (section II-C), with per-entry activity timers that expire
  idle entries back to the consistent-hashing fallback (section IV-A.5);
* routes publications and subscriptions according to the channel's
  replication mode (Figure 2);
* reacts to :class:`~repro.core.messages.MappingNotice` redirects and
  :class:`~repro.core.messages.SwitchNotice` publications by lazily
  updating its plan and reconciling its subscriptions (subscribe to the
  new servers first, unsubscribe from the old ones after a short grace);
* never routes to a server named by the last
  :class:`~repro.core.messages.FailureNotice` (the balancer's
  confirmed-dead set, relayed by a surviving dispatcher), and loses a
  server -- confirmed dead or suspected on its own pings -- through one
  path, ``_server_down``;
* deduplicates deliveries on one sliding window per sender over its
  publication numbers, so that overlap windows during reconfiguration
  never surface duplicates to the application.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.broker.commands import (
    ConnectionClosed,
    Delivery,
    PongReply,
    PublishCmd,
    ReplayGapNotice,
    ReplayRequest,
    SubscribeAck,
    SubscribeCmd,
    UnsubscribeCmd,
)
from repro.core.client_recovery import ClientRecovery
from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.messages import AppEnvelope, FailureNotice, MappingNotice, SwitchNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.core.reliability import CausalGate, ParkTimeout, ReliabilityConfig, SequenceStage
from repro.obs.metrics import FOLD_AT
from repro.obs.trace import (
    NULL_TRACER,
    CausalTimeoutEvent,
    ClientFailoverEvent,
    DeliveryEvent,
    PlanMissEvent,
    PublishEvent,
    SubscribeEvent,
    Tracer,
    UnsubscribeEvent,
)
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: tunables of a client built bare (tests); a cluster passes its own config
_DEFAULT_CONFIG = DynamothConfig()
#: After subscribing on a channel's new server, a client waits this long
#: before unsubscribing from the old one.  (Robustness addition over the
#: paper's "subscribe then unsubscribe immediately": it closes the race
#: where a publication processed on the new server after forwarding stopped
#: would miss the still-moving subscriber; duplicates this may cause are
#: absorbed by message-id dedup.)
RESUBSCRIBE_GRACE_S = 0.25
#: every client's ``_down`` until a FailureNotice (CPython shares no empty frozenset)
_NOTHING_DOWN: FrozenSet[str] = frozenset()

#: application delivery callback: (channel, body, envelope) -> None
DeliveryCallback = Callable[[str, Any, AppEnvelope], None]
#: response-time hook: (rtt_seconds, now) -> None
ResponseTimeHook = Callable[[float, float], None]


@dataclass(slots=True)
class _PlanEntry:
    mapping: ChannelMapping
    last_activity: float


@dataclass(slots=True)
class _Subscription:
    callback: DeliveryCallback
    #: servers we currently hold (or are establishing) subscriptions on
    servers: Set[str] = field(default_factory=set)


@dataclass(slots=True)
class _Reconcile:
    """An in-flight subscription move awaiting subscribe acks."""

    version: int
    awaiting: Set[str]
    confirm: List[str]
    drop: List[str]


class DynamothClient(Actor):
    """A client node speaking the Dynamoth protocol."""

    #: Dedup window size: per sender, the last publication numbers remembered.
    DEDUP_WINDOW = 8192
    _WINDOW_FULL = (1 << DEDUP_WINDOW) - 1  # its bitmap, built once for every client
    #: Delay before re-establishing subscriptions after a forced disconnect.
    RECONNECT_DELAY_S = 0.5

    # Slots for the client's own attributes: with ``Actor``'s five in the
    # ``__dict__`` they would pass the 30 keys CPython shares between
    # instances, and every client would carry a private hash table.
    __slots__ = (
        "_ring", "_streams", "_rng", "_config", "_tracer", "_entries", "_ch_cache",
        "_subs", "_reconcile", "_pending_drops", "_windows",
        "_msg_counter", "_sequence", "_gate", "_recovery", "_down",
        "on_response_time", "on_delivery", "on_wire_delivery",
        "published", "delivered", "duplicates", "redirects", "switches",
        "disconnects", "failovers", "reconnects", "resubscribes",
        "causal_timeouts", "gap_requests", "unrecoverable",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        bootstrap_ring: ConsistentHashRing,
        streams: RngRegistry,
        *,
        config: DynamothConfig = _DEFAULT_CONFIG,
        tracer: Tracer = NULL_TRACER,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> None:
        super().__init__(sim, node_id, is_infra=False)
        self._ring = bootstrap_ring
        #: the ``client:<id>`` stream, opened at the first draw: only a
        #: replicated mapping draws, so most clients never seed one
        self._streams = streams
        self._rng: Optional[Random] = None
        #: the cluster's one shared config object, read in place
        self._config = config
        self._tracer = tracer

        self._entries: Dict[str, _PlanEntry] = {}
        #: servers the balancer confirmed dead, as the last
        #: :class:`FailureNotice` named them: never routed to
        self._down: FrozenSet[str] = _NOTHING_DOWN
        #: consistent-hashing fallback mappings past ``_down``, cached
        #: because the bootstrap ring never changes (avoids an md5 per
        #: publish); cleared when ``_down`` does
        self._ch_cache: Dict[str, ChannelMapping] = {}
        self._subs: Dict[str, _Subscription] = {}
        self._reconcile: Dict[str, _Reconcile] = {}
        #: grace-period unsubscribes not yet executed: channel -> servers.
        #: Tracked so a client that disconnects mid-grace still releases
        #: every server-side subscription it holds.
        self._pending_drops: Dict[str, Set[str]] = {}
        #: dedup state, one window per sender heard: ``[high, mask]``, the
        #: highest publication number seen and a bitmap, bit i = high - i seen
        self._windows: Dict[str, List[int]] = {}
        self._msg_counter = 0

        # Settled per run, so decided here once: which delivery guarantees
        # (``receive``'s two optional stages) and whether to probe servers.
        #: sequence/gap stage; present only when brokers stamp sequences
        self._sequence: Optional[SequenceStage] = None
        #: causal gate; present only under ``causal_order``
        self._gate: Optional[CausalGate] = None
        if reliability is not None:
            if reliability.reliable:
                self._sequence = SequenceStage(reliability)
            if reliability.causal_order:
                self._gate = CausalGate(self)
        #: failure detection & failover; present only when probing is on
        self._recovery: Optional[ClientRecovery] = None
        if config.client_ping_interval_s is not None:
            self._recovery = ClientRecovery(self, config)

        #: optional hook fired when the client receives its own publication
        #: back (the paper's response-time metric).
        self.on_response_time: Optional[ResponseTimeHook] = None
        #: optional ground-truth delivery ledger hook: called once per
        #: *non-duplicate* application delivery as ``(channel, envelope,
        #: delivery)``, before the subscription callback.  The
        #: ``repro.check`` property harness uses it to record exactly what
        #: the application saw (including seq/epoch/replayed metadata).
        self.on_delivery: Optional[Callable[[str, AppEnvelope, Delivery], None]] = None
        #: protocol-level tap: every delivery off the wire, pre-dedup
        self.on_wire_delivery: Optional[Callable[[str, Delivery], None]] = None

        # --- counters (metrics / tests) ---
        self.published = 0
        self.delivered = 0
        self.duplicates = 0
        self.redirects = 0
        self.switches = 0
        self.disconnects = 0
        self.failovers = 0
        self.reconnects = 0
        self.resubscribes = 0
        self.causal_timeouts = 0
        self.gap_requests = 0
        self.unrecoverable = 0

    # ------------------------------------------------------------------
    # Public pub/sub API (mirrors the standard Redis client interface)
    # ------------------------------------------------------------------
    def _send_subscribe(self, channel: str, version: int, server: str) -> None:
        """SUBSCRIBE on one server, with the replay resume point attached.

        The resume point (last-seen sequence position on that server's
        stream) turns reconnect into gap replay when the reliability layer
        is on; without it (or on first contact) this is a plain SUBSCRIBE.
        """
        resume = (-1, -1)  # SubscribeCmd's own defaults: no resume point
        if self._sequence is not None:
            resume = self._sequence.resume_point(server, channel)
            self._sequence.sent_subscribe(server, channel, version, self.sim.now)
        self.send(server, SubscribeCmd(channel, version, *resume), SubscribeCmd.WIRE_SIZE)

    def subscribe(self, channel: str, callback: DeliveryCallback) -> None:
        """Subscribe to ``channel``; ``callback`` receives each publication."""
        mapping = self._resolve(channel)
        sub = self._subs.get(channel)
        if sub is None:
            sub = _Subscription(callback)
            self._subs[channel] = sub
        else:
            sub.callback = callback
        desired = self._desired_sub_servers(mapping, sub.servers)
        for server in sorted(desired - sub.servers):
            self._send_subscribe(channel, mapping.version, server)
        for server in sorted(sub.servers - desired):
            self.send(server, UnsubscribeCmd(channel), UnsubscribeCmd.WIRE_SIZE)
        sub.servers = desired
        entry = self._entries.get(channel)
        if entry is not None:
            entry.last_activity = self.sim.now
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(SubscribeEvent(self.sim.now, self.node_id, channel, tuple(sorted(desired))))

    def unsubscribe(self, channel: str) -> None:
        """Drop the subscription to ``channel`` (idempotent)."""
        # Abort any in-flight reconciliation: a late subscribe-ack must
        # not re-establish subscriptions we no longer want.  The pending
        # move's old servers still hold (or will hold) our subscription,
        # so the unsubscribe must reach them too.
        pending = self._reconcile.pop(channel, None)
        sub = self._subs.pop(channel, None)
        if self._recovery is not None:
            self._recovery.forget(channel)
        # A clean unsubscribe ends the stream position and the causal
        # history: a later resubscribe starts fresh rather than replaying
        # the time away.
        if self._sequence is not None:
            self._sequence.drop_channel(channel)
        if self._gate is not None:
            self._gate.drop_channel(channel)
        if sub is None and pending is None:
            return
        targets = set(sub.servers) if sub is not None else set()
        if pending is not None:
            targets |= set(pending.drop) | set(pending.confirm) | pending.awaiting
        for server in sorted(targets):
            self.send(server, UnsubscribeCmd(channel), UnsubscribeCmd.WIRE_SIZE)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(UnsubscribeEvent(self.sim.now, self.node_id, channel))

    def publish(self, channel: str, body: Any, payload_size: int) -> str:
        """Publish ``body`` on ``channel``; returns the message id."""
        mapping = self._resolve(channel)
        self._msg_counter += 1
        # The globally unique id is the message's identity on the wire.
        msg_id = f"{self.node_id}:{self._msg_counter}"
        pub_seq, deps = self._gate.stamp(channel) if self._gate is not None else (0, ())
        envelope = AppEnvelope(
            msg_id, self.node_id, self._msg_counter, body, mapping.version, self.sim.now,
            False, pub_seq, deps,
        )
        wire_payload = payload_size + AppEnvelope.WIRE_OVERHEAD
        cmd = PublishCmd(channel, envelope, wire_payload)
        if mapping.mode is ReplicationMode.ALL_SUBSCRIBERS:
            targets = mapping.publish_targets(self._rng or self._open_stream())
        else:
            targets = mapping.servers  # no draw: the stream stays unopened
        for server in targets:
            self.send(server, cmd, wire_payload)
        if self._recovery is not None:
            probed = self._recovery.publish_targets
            for server in targets:
                probed[server] = self.sim.now
        self.published += 1
        entry = self._entries.get(channel)
        if entry is not None:
            entry.last_activity = self.sim.now
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                PublishEvent(
                    self.sim.now, msg_id, channel, self.node_id, mapping.version,
                    tuple(targets), payload_size,
                )
            )
            tracer.publication_counters[channel].value += 1.0
        return msg_id

    def is_subscribed(self, channel: str) -> bool:
        return channel in self._subs

    def subscription_servers(self, channel: str) -> Set[str]:
        sub = self._subs.get(channel)
        return set(sub.servers) if sub is not None else set()

    def known_mapping(self, channel: str) -> Optional[ChannelMapping]:
        """The client's current plan entry for ``channel`` (None = CH)."""
        entry = self._entries.get(channel)
        return entry.mapping if entry is not None else None

    def disconnect(self) -> None:
        """Leave the system cleanly: drop all subscriptions."""
        if self._recovery is not None:
            self._recovery.stop()
        for channel in list(self._subs):
            self.unsubscribe(channel)
        # Flush grace-period drops that have not fired yet; once we are
        # gone nothing else would release those server-side subscriptions.
        for channel, servers in list(self._pending_drops.items()):
            for server in sorted(servers):
                self.send(server, UnsubscribeCmd(channel), UnsubscribeCmd.WIRE_SIZE)
        self._pending_drops.clear()
        self.shutdown()

    # ------------------------------------------------------------------
    # Local plan maintenance
    # ------------------------------------------------------------------
    def _resolve(self, channel: str) -> ChannelMapping:
        """Current mapping for ``channel``: fresh entry or CH fallback.

        Plan entries never name a confirmed-dead server (``_server_down``
        drops them and ``_apply_mapping`` refuses them), and the fallback
        cache is built past ``_down``; only the client's own unconfirmed
        suspicion is checked here.
        """
        recovery = self._recovery
        failed: AbstractSet[str] = _NOTHING_DOWN
        if recovery is not None and recovery.failed:
            failed = recovery.live_failed(self.sim.now)
        entry = self._entries.get(channel)
        if entry is not None:
            idle = self.sim.now - entry.last_activity
            if idle > self._config.plan_entry_timeout_s and channel not in self._subs:
                # Timer expired while not subscribed: drop the entry and
                # fall back to consistent hashing (section IV-A.5).
                del self._entries[channel]
            elif failed and any(s in failed for s in entry.mapping.servers):
                # The entry routes to a server we declared dead: drop it;
                # the repair plan's notices will teach us the new home.
                del self._entries[channel]
            else:
                return entry.mapping
        if failed:
            # Bypass the CH cache: the ring walk must skip suspected
            # servers, and those marks expire on their own.
            return ChannelMapping(
                ReplicationMode.SINGLE,
                (self._ring.lookup(channel, exclude=failed | self._down),),
                0,
            )
        fallback = self._ch_cache.get(channel)
        tracer = self._tracer
        if fallback is None:
            fallback = ChannelMapping(
                ReplicationMode.SINGLE, (self._ring.lookup(channel, exclude=self._down),), 0
            )
            self._ch_cache[channel] = fallback
            if tracer.enabled:
                tracer.emit(
                    PlanMissEvent(
                        self.sim.now, self.node_id, channel, fallback.servers[0]
                    )
                )
        if tracer.enabled:
            tracer.plan_miss_counters[channel].value += 1.0
        return fallback

    def _desired_sub_servers(
        self, mapping: ChannelMapping, current: Set[str], *, rebalance: bool = False
    ) -> Set[str]:
        """Servers this subscriber should hold subscriptions on.

        For ALL_PUBLISHERS, an already-held server still in the mapping is
        kept to avoid needless churn -- *except* when ``rebalance`` is set,
        which forces a fresh random pick.  The rebalance case matters when
        a client upgrades from the consistent-hashing fallback: every
        fallback subscriber holds the same ring-determined server, and
        keeping it would pile all of them onto one replica instead of
        spreading them randomly (Figure 2c).
        """
        if mapping.mode is ReplicationMode.ALL_SUBSCRIBERS:
            return set(mapping.servers)
        if mapping.mode is ReplicationMode.ALL_PUBLISHERS:
            if not rebalance:
                keep = current & set(mapping.servers)
                if keep:
                    return {next(iter(sorted(keep)))}
            return {(self._rng or self._open_stream()).choice(mapping.servers)}
        return {mapping.servers[0]}

    def _open_stream(self) -> Random:
        """First draw: open this client's named stream and keep it."""
        rng = self._rng = self._streams.stream(f"client:{self.node_id}")
        return rng

    def _apply_mapping(self, channel: str, mapping: ChannelMapping) -> None:
        """Adopt a (possibly newer) mapping and reconcile subscriptions."""
        down = self._down
        if down and any(s in down for s in mapping.servers):
            return  # stale routing info pointing at a confirmed-dead server
        recovery = self._recovery
        if recovery is not None and recovery.failed:
            failed = recovery.live_failed(self.sim.now)
            if any(s in failed for s in mapping.servers):
                return  # stale routing info pointing at a dead server
        entry = self._entries.get(channel)
        old = entry.mapping if entry is not None else None
        if old is not None and mapping.version < old.version:
            return  # stale notice
        if entry is None:
            self._entries[channel] = _PlanEntry(mapping, self.sim.now)
        else:
            entry.mapping = mapping
            entry.last_activity = self.sim.now

        sub = self._subs.get(channel)
        if sub is None:
            return
        was_fallback = old is None or old.version == 0
        version_advanced = old is None or mapping.version > old.version
        desired = self._desired_sub_servers(
            mapping, sub.servers, rebalance=was_fallback
        )
        if not version_advanced and desired == sub.servers:
            return  # duplicate notice, nothing to reconcile
        # A still-pending reconcile for this channel is superseded; its
        # not-yet-executed drop/confirm targets must not be forgotten --
        # we hold (or have requested) subscriptions there too.
        prior = self._reconcile.pop(channel, None)
        legacy: Set[str] = set()
        if prior is not None:
            legacy = set(prior.drop) | set(prior.confirm)
        to_add = sorted(desired - sub.servers)
        kept = sorted(desired & sub.servers)
        to_drop = sorted((sub.servers | legacy) - desired)
        # Step 1: establish subscriptions on the new servers.
        for server in to_add:
            self._send_subscribe(channel, mapping.version, server)
        sub.servers = desired
        # Step 2 happens only after every new server *acked* (Redis-style
        # subscribe confirmation): re-subscribe on the kept servers with
        # the new version -- the signal their dispatchers wait for before
        # ending transition forwarding -- and drop the old servers after a
        # short extra grace.  Doing this before the acks would let
        # forwarding stop while our new subscriptions are still in flight,
        # losing messages.
        self._reconcile[channel] = _Reconcile(
            version=mapping.version,
            awaiting=set(to_add),
            confirm=list(kept),
            drop=list(to_drop),
        )
        if not to_add:
            self._finish_reconcile(channel)

    def _finish_reconcile(self, channel: str) -> None:
        pending = self._reconcile.pop(channel, None)
        if pending is None or channel not in self._subs:
            return
        for server in pending.confirm:
            self._send_subscribe(channel, pending.version, server)
        for server in pending.drop:
            self._pending_drops.setdefault(channel, set()).add(server)
            self.sim.schedule(RESUBSCRIBE_GRACE_S, self._grace_unsubscribe, channel, server)

    def _grace_unsubscribe(self, channel: str, server: str) -> None:
        drops = self._pending_drops.get(channel)
        if drops is not None:
            drops.discard(server)
            if not drops:
                del self._pending_drops[channel]
        if not self.alive or self.transport is None:
            return  # client left; disconnect() already flushed the drop
        sub = self._subs.get(channel)
        if sub is not None and server in sub.servers:
            return  # mapping changed again; the server is wanted after all
        self.send(server, UnsubscribeCmd(channel), UnsubscribeCmd.WIRE_SIZE)

    def _request_replay(self, server: str, channel: str, epoch: int, seqs: Tuple[int, ...]) -> None:
        request = ReplayRequest(channel, epoch, seqs)
        self.gap_requests += 1
        self.send(server, request, request.wire_size)

    def _retry_gaps(self, server: str, channel: str) -> None:
        """Retry timer of one sequence stream: the due-check when nothing arrives."""
        sub, live = self._subs.get(channel), self.alive and self.transport is not None
        held = live and sub is not None and server in sub.servers
        assert self._sequence is not None  # only the stage arms this timer
        epoch, seqs, delay = self._sequence.retry(server, channel, self.sim.now, held)
        if seqs:
            self._request_replay(server, channel, epoch, seqs)
        if delay:
            self.sim.schedule(delay, self._retry_gaps, server, channel)

    # ------------------------------------------------------------------
    # Inbound traffic
    # ------------------------------------------------------------------
    def receive(self, message: Any, src_id: str) -> None:
        if isinstance(message, Delivery):
            # Hot path: one call per application delivery.  The fixed chain
            # touch -> switch notice -> wire tap -> [sequence stage] ->
            # dedup -> [causal gate] -> tail runs in this one frame (an
            # at_most_once run has neither stage and pays for no other).
            envelope = message.payload
            if not isinstance(envelope, AppEnvelope):
                return
            channel = message.channel
            sim = self.sim
            entry = self._entries.get(channel)
            if entry is not None:
                entry.last_activity = sim.now

            if isinstance(envelope.body, SwitchNotice):
                self.switches += 1
                self._apply_mapping(channel, envelope.body.mapping)
                return

            tracer = self._tracer
            if self.on_wire_delivery is not None:
                # Protocol-level tap: fires for every app delivery that
                # made it off the wire, *before* seq/dedup suppression (a
                # hole filled by a cross-stream duplicate is still a
                # filled hole).
                self.on_wire_delivery(channel, message)
            sequence = self._sequence
            if sequence is not None and message.seq is not None:
                # Predicted (TCP header prediction): the next number of a
                # known stream in the same epoch with no holes moves the
                # watermark here, as ``observe`` would; anything else is
                # the stage's to judge.
                seq = message.seq
                stream = sequence.streams.get((message.server_id, channel))
                if (
                    stream is not None and seq == stream.max_seq + 1
                    and stream.epoch == message.epoch and not stream.missing
                ):
                    stream.max_seq = seq
                    stream.backoff = 0
                else:
                    verdict = sequence.observe(
                        message.server_id, channel, seq, message.epoch, sim.now
                    )
                    if verdict is False:
                        # exactly_once: a sequence number already at or below
                        # the stream watermark (and not a known hole) is a
                        # replayed duplicate, known without the sender's window.
                        self.duplicates += 1
                        if tracer.enabled:
                            tracer.metrics.counter("duplicates_total", client=self.node_id).inc()
                        return
                    if verdict is not True:
                        # Holes are due: ask, and have the stream's retry timer running.
                        server_id = message.server_id
                        self._request_replay(server_id, channel, message.epoch, verdict)
                        delay = sequence.arm(server_id, channel)
                        if delay:
                            sim.schedule(delay, self._retry_gaps, server_id, channel)

            # Dedup: one sliding window per sender over its publication
            # numbers (the IPsec anti-replay window).  Only the sender's new
            # numbers move it, so replays cannot cycle a number out of it.
            number = envelope.number
            window = self._windows.get(envelope.sender)
            if window is None:
                self._windows[envelope.sender] = [number, 1]
            elif number > window[0]:
                # Slide; a jump past the window restarts it, with no long temporary.
                jump, window[0] = number - window[0], number
                full = self._WINDOW_FULL
                window[1] = ((window[1] << jump) | 1) & full if jump < self.DEDUP_WINDOW else 1
            elif window[0] - number < self.DEDUP_WINDOW:
                bit = 1 << (window[0] - number)
                if window[1] & bit:
                    self.duplicates += 1
                    if tracer.enabled:
                        tracer.metrics.counter("duplicates_total", client=self.node_id).inc()
                    return
                window[1] |= bit
            # else: older than the window -- delivered, and not recorded

            delivery = message
            batch = None
            gate = self._gate
            if gate is not None and envelope.pub_seq > 0:
                # Predicted: on a channel with nothing parked, an arrival
                # that is causally ready (``admit``'s test) releases nothing
                # else, so it is delivered alone from here.
                state = gate.channels.get(channel)
                ready = False
                if state is not None and not state.parked:
                    delivered, sender, pub_seq = state.delivered, envelope.sender, envelope.pub_seq
                    last = delivered.get(sender, 0)
                    ready = pub_seq <= last + 1
                    if ready:
                        for dep_sender, dep_seq in envelope.deps:
                            if dep_sender != sender and delivered.get(dep_sender, 0) < dep_seq:
                                ready = False
                                break
                    if ready and pub_seq > last:
                        delivered[sender] = pub_seq
                if not ready:
                    # The arrival, then whatever it releases, in the gate's
                    # scan order; empty when the arrival parks.
                    batch = gate.admit(message)
                    if not batch:
                        return
        elif isinstance(message, ParkTimeout):
            # Local, from the causal gate's park timer: a dependency is
            # apparently lost for good, so the channel is force-flushed in
            # arrival order rather than wedged.
            if not self.alive or self.transport is None:
                return
            channel = message.channel
            assert self._gate is not None  # only the gate arms this timer
            batch = self._gate.expire(channel, message.token)
            if not batch:
                return  # the parked set drained (or churned) since scheduling
            delivery = batch[0]
            envelope = delivery.payload
            sim = self.sim
            tracer = self._tracer
            self.causal_timeouts += 1
            if tracer.enabled:
                tracer.emit(CausalTimeoutEvent(sim.now, self.node_id, channel, len(batch)))
                tracer.metrics.counter("causal_timeouts_total", client=self.node_id).inc()
        else:
            if isinstance(message, MappingNotice):
                self.redirects += 1
                self._apply_mapping(message.channel, message.mapping)
            elif isinstance(message, SubscribeAck):
                if self._recovery is not None:
                    self._recovery.ack(message.channel, message.server_id)
                if self._sequence is not None:
                    self._sequence.subscribe_acked(message.server_id, message.channel, self.sim.now)
                pending = self._reconcile.get(message.channel)
                if pending is not None:
                    pending.awaiting.discard(message.server_id)
                    if not pending.awaiting:
                        self._finish_reconcile(message.channel)
            elif isinstance(message, PongReply):
                if self._recovery is not None:
                    self._recovery.pong(message.server_id, message.stamp)
            elif isinstance(message, ReplayGapNotice):
                if self._sequence is not None:
                    self.unrecoverable += self._sequence.forget_through(
                        message.server_id, message.channel, message.epoch, message.through_seq
                    )
            elif isinstance(message, ConnectionClosed):
                # A server closed our connection (overload kill or
                # decommission): resubscribe after a short delay.
                self.disconnects += 1
                affected = self._detach_server(message.server_id)
                if affected:
                    self.sim.schedule(self.RECONNECT_DELAY_S, self._reconnect, affected)
            elif isinstance(message, FailureNotice):
                self._on_failure_notice(message.failed_servers)
            else:
                raise TypeError(f"{self.node_id}: unexpected message {type(message).__name__}")
            return

        # The one delivery tail: an arrival, a causal release and a timeout
        # flush all reach the application through here.  It runs for
        # ``delivery``, then for the rest of ``batch`` if there is one -- a
        # ``while``, because building a one-element batch per delivery
        # costs the at_most_once path a seventh of this frame.
        position = 1
        while True:
            self.delivered += 1
            if tracer.enabled:
                latency = sim.now - envelope.sent_at
                tracer.emit(
                    DeliveryEvent(
                        sim.now, self.node_id, channel, envelope.msg_id, envelope.sender,
                        latency, envelope.plan_version, delivery.server_id,
                    )
                )
                latency_hist, received = tracer.delivery_instruments[channel]
                pending = latency_hist.pending
                pending.append(latency)
                if len(pending) >= FOLD_AT:
                    latency_hist.fold()
                received.value += 1.0
            if self.on_delivery is not None:
                self.on_delivery(channel, envelope, delivery)
            if envelope.sender == self.node_id and self.on_response_time is not None:
                self.on_response_time(sim.now - envelope.sent_at, sim.now)
            sub = self._subs.get(channel)
            if sub is not None:
                sub.callback(channel, envelope.body, envelope)
            if batch is None or position == len(batch):
                return
            delivery = batch[position]
            envelope = delivery.payload
            position += 1

    def _detach_server(self, server_id: str) -> List[str]:
        """The one place a lost server (closed connection, or declared dead)
        leaves subscriptions, acks and plan entries; returns its channels."""
        affected = []
        for channel, sub in self._subs.items():
            if server_id not in sub.servers:
                continue
            sub.servers.discard(server_id)
            # The mapping pointing at the lost server is useless; drop it
            # so the resubscribe resolves fresh (CH fallback or a notice
            # from the fallback server's dispatcher).
            entry = self._entries.get(channel)
            if entry is not None and server_id in entry.mapping.servers:
                del self._entries[channel]
            affected.append(channel)
        if self._recovery is not None:
            self._recovery.unack(server_id, affected)
        if self._sequence is not None:
            self._sequence.drop_server(server_id)
        return affected

    def _on_failure_notice(self, failed_servers: Tuple[str, ...]) -> None:
        """Adopt the balancer's confirmed-dead set, relayed by a survivor."""
        down = frozenset(failed_servers)
        if down == self._down:
            return  # another survivor already told us
        newly_down = sorted(down - self._down)
        # Wholesale: a server that left the set was re-admitted and is
        # routable again at once.
        self._down = down
        self._ch_cache.clear()
        recovery = self._recovery
        suspected = recovery.live_failed(self.sim.now) if recovery is not None else _NOTHING_DOWN
        for server_id in newly_down:
            if recovery is not None and server_id in suspected:
                # Already failed over on our own pings: the confirmation
                # turns the expiring suspicion into a lasting exclusion.
                del recovery.failed[server_id]
            else:
                self._server_down(server_id)

    def _server_down(self, server_id: str) -> None:
        """The one server-loss path, for a confirmed failure and for this
        client's own suspicion alike: forget every route through
        ``server_id`` and resubscribe the channels it carried elsewhere."""
        # Any plan entry routing through the dead server is poison.
        entries = self._entries
        for channel in list(entries):
            if server_id in entries[channel].mapping.servers:
                del entries[channel]
        affected = self._detach_server(server_id)
        for channel in affected:
            pending = self._reconcile.get(channel)
            if pending is not None:
                # A reconcile must not wait forever on a dead server's ack.
                pending.awaiting.discard(server_id)
                if server_id in pending.confirm:
                    pending.confirm.remove(server_id)
                if server_id in pending.drop:
                    pending.drop.remove(server_id)
                if not pending.awaiting:
                    self._finish_reconcile(channel)
        self.failovers += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                ClientFailoverEvent(self.sim.now, self.node_id, server_id, tuple(affected))
            )
            tracer.metrics.counter("client_failovers_total").inc()
        if self._recovery is not None:
            # Probing on: ack-verified recovery rounds with back-off.
            self._recovery.fail_over(server_id, affected)
        elif affected:
            self.sim.schedule(self.RECONNECT_DELAY_S, self._reconnect, affected)

    def _reconnect(self, channels: List[str]) -> None:
        if not self.alive or self.transport is None:
            return
        for channel in channels:
            sub = self._subs.get(channel)
            if sub is not None:
                self.subscribe(channel, sub.callback)
