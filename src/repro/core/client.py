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
* deduplicates deliveries on globally unique message ids so that overlap
  windows during reconfiguration never surface duplicates to the
  application.
"""

from __future__ import annotations

from random import Random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.broker.commands import (
    ConnectionClosed,
    Delivery,
    PingCmd,
    PongReply,
    PublishCmd,
    ReplayGapNotice,
    ReplayRequest,
    SubscribeAck,
    SubscribeCmd,
    UnsubscribeCmd,
)
from repro.core.hashing import ConsistentHashRing
from repro.core.messages import AppEnvelope, MappingNotice, SwitchNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.core.reliability import ClientReliability, ReliabilityConfig
from repro.obs.trace import (
    NULL_TRACER,
    CausalTimeoutEvent,
    ClientFailoverEvent,
    ClientReconnectEvent,
    DeliveryEvent,
    PlanMissEvent,
    PublishEvent,
    SubscribeEvent,
    Tracer,
    UnsubscribeEvent,
    channel_class,
)
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask

#: application delivery callback: (channel, body, envelope) -> None
DeliveryCallback = Callable[[str, Any, AppEnvelope], None]
#: response-time hook: (channel, rtt_seconds, now) -> None
ResponseTimeHook = Callable[[str, float, float], None]


@dataclass
class _PlanEntry:
    mapping: ChannelMapping
    last_activity: float


@dataclass
class _Subscription:
    callback: DeliveryCallback
    #: servers we currently hold (or are establishing) subscriptions on
    servers: Set[str] = field(default_factory=set)


@dataclass
class _Reconcile:
    """An in-flight subscription move awaiting subscribe acks."""

    version: int
    awaiting: Set[str]
    confirm: list
    drop: list


class DynamothClient(Actor):
    """A client node speaking the Dynamoth protocol."""

    #: Dedup window size: ids of the most recent deliveries remembered.
    DEDUP_WINDOW = 8192
    #: Delay before re-establishing subscriptions after a forced disconnect.
    RECONNECT_DELAY_S = 0.5

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        bootstrap_ring: ConsistentHashRing,
        rng: Random,
        *,
        plan_entry_timeout_s: float = 30.0,
        resubscribe_grace_s: float = 0.25,
        ping_interval_s: Optional[float] = None,
        ping_miss_limit: int = 3,
        subscribe_ack_timeout_s: float = 2.0,
        reconnect_backoff_base_s: float = 0.5,
        reconnect_backoff_max_s: float = 10.0,
        failed_server_ttl_s: float = 60.0,
        tracer: Tracer = NULL_TRACER,
        reliability: Optional[ReliabilityConfig] = None,
        dedup_window: Optional[int] = None,
    ):
        super().__init__(sim, node_id, is_infra=False)
        self._ring = bootstrap_ring
        self._rng = rng
        self._plan_entry_timeout = plan_entry_timeout_s
        self._resubscribe_grace = resubscribe_grace_s
        self._ping_interval = ping_interval_s
        self._ping_miss_limit = ping_miss_limit
        self._subscribe_ack_timeout = subscribe_ack_timeout_s
        self._reconnect_backoff_base = reconnect_backoff_base_s
        self._reconnect_backoff_max = reconnect_backoff_max_s
        self._failed_server_ttl = failed_server_ttl_s
        self._tracer = tracer

        self._entries: Dict[str, _PlanEntry] = {}
        #: consistent-hashing fallback mappings, cached because the
        #: bootstrap ring never changes (avoids an md5 per publish)
        self._ch_cache: Dict[str, ChannelMapping] = {}
        self._subs: Dict[str, _Subscription] = {}
        self._reconcile: Dict[str, _Reconcile] = {}
        #: grace-period unsubscribes not yet executed: channel -> servers.
        #: Tracked so a client that disconnects mid-grace still releases
        #: every server-side subscription it holds.
        self._pending_drops: Dict[str, Set[str]] = {}
        #: msg id -> number of occurrences still inside the recency deque.
        #: A dict (not a set) because a duplicate hit *refreshes* the id's
        #: recency by re-appending it -- a replayed message under active
        #: repair must not expire out of the window while its replays are
        #: still arriving (the dedup-window edge the exactly-once tier
        #: depends on).
        self._seen_ids: Dict[str, int] = {}
        self._seen_order: Deque[str] = deque()
        self._dedup_window = dedup_window if dedup_window is not None else self.DEDUP_WINDOW
        self._msg_counter = 0

        # --- reliable delivery tier (repro.core.reliability) ---
        self._rel: Optional[ClientReliability] = (
            ClientReliability(reliability) if reliability is not None else None
        )
        self._causal = reliability is not None and reliability.causal_order
        #: causal mode: per-channel out-of-order deliveries awaiting their
        #: dependencies, in arrival order
        self._parked: Dict[str, list] = {}
        #: invalidates scheduled park-timeout flushes when a channel drains
        self._park_token: Dict[str, int] = {}

        # --- failure detection & recovery (repro.faults subsystem) ---
        #: server -> time this client declared it dead; entries expire
        #: after ``failed_server_ttl_s`` so a restarted server becomes
        #: routable again without any explicit signal.
        self._failed_servers: Dict[str, float] = {}
        #: server -> consecutive unanswered pings
        self._ping_pending: Dict[str, int] = {}
        #: server -> last time this client published through it.  Pure
        #: publishers have no subscriptions to probe, so liveness checks
        #: must also cover recently-used publish targets -- otherwise a
        #: publisher keeps sending into a dead server forever.
        self._publish_targets: Dict[str, float] = {}
        #: channel -> servers whose SubscribeAck we have seen
        self._acked: Dict[str, Set[str]] = {}
        #: channels with a failover recovery in flight
        self._recovery_pending: Set[str] = set()
        #: channel -> newest recovery attempt number (stale timers ignored)
        self._recovery_attempt: Dict[str, int] = {}
        #: liveness probing of subscribed servers; disabled by default
        #: because pong traffic perturbs measured egress.  The sends are
        #: fully deterministic (no RNG, no jitter), so enabling it changes
        #: nothing else.
        self._ping_task: Optional[PeriodicTask] = None
        if ping_interval_s is not None:
            self._ping_task = PeriodicTask(sim, ping_interval_s, self._ping_tick)
            self._ping_task.start()

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

    # ------------------------------------------------------------------
    # Public pub/sub API (mirrors the standard Redis client interface)
    # ------------------------------------------------------------------
    def _subscribe_cmd(self, channel: str, version: int, server: str) -> SubscribeCmd:
        """SUBSCRIBE for one server, with the replay resume point attached.

        The resume point (last-seen sequence position on that server's
        stream) turns reconnect into gap replay when the reliability layer
        is on; without it (or on first contact) this is a plain SUBSCRIBE.
        """
        rel = self._rel
        if rel is None or not rel.config.replay_active:
            return SubscribeCmd(channel, version)
        after, epoch = rel.resume_point(server, channel)
        if after < 0:
            return SubscribeCmd(channel, version)
        return SubscribeCmd(channel, version, after, epoch)

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
            self.send(
                server,
                self._subscribe_cmd(channel, mapping.version, server),
                SubscribeCmd.WIRE_SIZE,
            )
        for server in sorted(sub.servers - desired):
            self.send(server, UnsubscribeCmd(channel), UnsubscribeCmd.WIRE_SIZE)
        sub.servers = desired
        self._touch(channel)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                SubscribeEvent(self.sim.now, self.node_id, channel, tuple(sorted(desired)))
            )

    def unsubscribe(self, channel: str) -> None:
        """Drop the subscription to ``channel`` (idempotent)."""
        # Abort any in-flight reconciliation: a late subscribe-ack must
        # not re-establish subscriptions we no longer want.  The pending
        # move's old servers still hold (or will hold) our subscription,
        # so the unsubscribe must reach them too.
        pending = self._reconcile.pop(channel, None)
        sub = self._subs.pop(channel, None)
        self._acked.pop(channel, None)
        self._recovery_pending.discard(channel)
        self._recovery_attempt.pop(channel, None)
        if self._rel is not None:
            # A clean unsubscribe ends the stream position: a later
            # resubscribe starts fresh rather than replaying the time away.
            self._rel.drop_channel(channel)
            self._parked.pop(channel, None)
            self._park_token[channel] = self._park_token.get(channel, 0) + 1
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
        msg_id = f"{self.node_id}:{self._msg_counter}"
        pub_seq = 0
        deps: Tuple[Tuple[str, int], ...] = ()
        if self._causal and self._rel is not None:
            pub_seq, deps = self._rel.stamp_publication(channel, self.node_id)
        envelope = AppEnvelope(
            msg_id, self.node_id, body, mapping.version, self.sim.now, False, pub_seq, deps
        )
        wire_payload = payload_size + AppEnvelope.WIRE_OVERHEAD
        cmd = PublishCmd(channel, envelope, wire_payload)
        targets = mapping.publish_targets(self._rng)
        for server in targets:
            self.send(server, cmd, wire_payload)
        if self._ping_interval is not None:
            for server in targets:
                self._publish_targets[server] = self.sim.now
        self.published += 1
        self._touch(channel)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                PublishEvent(
                    self.sim.now,
                    msg_id,
                    channel,
                    self.node_id,
                    mapping.version,
                    tuple(targets),
                    payload_size,
                )
            )
            tracer.metrics.counter(
                "publications_total", channel_class=channel_class(channel)
            ).inc()
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
        if self._ping_task is not None:
            self._ping_task.stop()
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
        """Current mapping for ``channel``: fresh entry or CH fallback."""
        failed = self._live_failed(self.sim.now) if self._failed_servers else ()
        entry = self._entries.get(channel)
        if entry is not None:
            idle = self.sim.now - entry.last_activity
            if idle > self._plan_entry_timeout and channel not in self._subs:
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
            # Bypass the CH cache: the ring walk must skip dead servers.
            # Not cached -- the failed set shrinks as TTLs expire.
            return ChannelMapping(
                ReplicationMode.SINGLE,
                (self._ring.lookup(channel, exclude=failed),),
                0,
            )
        fallback = self._ch_cache.get(channel)
        tracer = self._tracer
        if fallback is None:
            fallback = ChannelMapping(
                ReplicationMode.SINGLE, (self._ring.lookup(channel),), 0
            )
            self._ch_cache[channel] = fallback
            if tracer.enabled:
                tracer.emit(
                    PlanMissEvent(
                        self.sim.now, self.node_id, channel, fallback.servers[0]
                    )
                )
        if tracer.enabled:
            tracer.metrics.counter(
                "plan_miss_total", channel_class=channel_class(channel)
            ).inc()
        return fallback

    def _touch(self, channel: str) -> None:
        entry = self._entries.get(channel)
        if entry is not None:
            entry.last_activity = self.sim.now

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
            return {self._rng.choice(mapping.servers)}
        return {mapping.servers[0]}

    def _apply_mapping(self, channel: str, mapping: ChannelMapping) -> None:
        """Adopt a (possibly newer) mapping and reconcile subscriptions."""
        if self._failed_servers:
            failed = self._live_failed(self.sim.now)
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
            self.send(
                server,
                self._subscribe_cmd(channel, mapping.version, server),
                SubscribeCmd.WIRE_SIZE,
            )
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
            self.send(
                server,
                self._subscribe_cmd(channel, pending.version, server),
                SubscribeCmd.WIRE_SIZE,
            )
        for server in pending.drop:
            self._pending_drops.setdefault(channel, set()).add(server)
            self.sim.schedule(
                self._resubscribe_grace, self._grace_unsubscribe, channel, server
            )

    def _handle_subscribe_ack(self, ack: SubscribeAck) -> None:
        self._acked.setdefault(ack.channel, set()).add(ack.server_id)
        pending = self._reconcile.get(ack.channel)
        if pending is None:
            return
        pending.awaiting.discard(ack.server_id)
        if not pending.awaiting:
            self._finish_reconcile(ack.channel)

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

    # ------------------------------------------------------------------
    # Inbound traffic
    # ------------------------------------------------------------------
    def receive(self, message: Any, src_id: str) -> None:
        if isinstance(message, Delivery):
            # Hot path: one call per application delivery.  ``_touch`` and
            # the non-causal tail of ``_deliver_app`` are inlined here (both
            # methods remain for their other call sites: plan bookkeeping,
            # causal release/flush); ``sim._now`` skips the ``now`` property
            # descriptor.
            delivery = message
            envelope = delivery.payload
            if not isinstance(envelope, AppEnvelope):
                return
            channel = delivery.channel
            sim = self.sim
            entry = self._entries.get(channel)
            if entry is not None:
                entry.last_activity = sim._now

            body = envelope.body
            if isinstance(body, SwitchNotice):
                self.switches += 1
                self._apply_mapping(channel, body.mapping)
                return

            tracer = self._tracer
            if self.on_wire_delivery is not None:
                # Protocol-level tap: fires for every app delivery that
                # made it off the wire, *before* seq/dedup suppression (a
                # hole filled by a cross-stream duplicate is still a
                # filled hole).
                self.on_wire_delivery(channel, delivery)
            rel = self._rel
            if rel is not None and delivery.seq is not None:
                outcome = rel.observe(
                    delivery.server_id,
                    channel,
                    delivery.seq,
                    delivery.epoch,
                    delivery.replayed,
                    sim._now,
                )
                if outcome.request is not None:
                    after, up_to = outcome.request
                    self.send(
                        delivery.server_id,
                        ReplayRequest(channel, delivery.epoch, after, up_to),
                        ReplayRequest.WIRE_SIZE,
                    )
                if not outcome.deliver:
                    # exactly_once: a sequence number already at or below
                    # the stream watermark (and not a known hole) is a
                    # replayed duplicate -- dropped *before* any msg-id
                    # bookkeeping so replay traffic can never cycle fresh
                    # ids out of the dedup window.
                    self.duplicates += 1
                    if tracer.enabled:
                        tracer.metrics.counter(
                            "duplicates_total", client=self.node_id
                        ).inc()
                    return

            # Message-id dedup with a count-aware LRU window.  A duplicate
            # hit re-appends the id (recency refresh): under active replay
            # the same id keeps arriving, and a FIFO window would eventually
            # expire it *between* two replays -- double-counting the message
            # in the delivery ledger.  Counts track how many times an id
            # sits in the deque so eviction only forgets an id when its
            # last occurrence leaves the window.
            msg_id = envelope.msg_id
            seen = self._seen_ids
            order = self._seen_order
            count = seen.get(msg_id)
            seen[msg_id] = (count + 1) if count is not None else 1
            order.append(msg_id)
            if len(order) > self._dedup_window:
                oldest = order.popleft()
                remaining = seen[oldest] - 1
                if remaining:
                    seen[oldest] = remaining
                else:
                    del seen[oldest]
            if count is not None:
                self.duplicates += 1
                if tracer.enabled:
                    tracer.metrics.counter(
                        "duplicates_total", client=self.node_id
                    ).inc()
                return

            if self._causal and rel is not None and envelope.pub_seq > 0:
                if not rel.deliverable(
                    channel, envelope.sender, envelope.pub_seq, envelope.deps
                ):
                    self._park(channel, envelope, delivery)
                    return
                self._deliver_app(channel, envelope, delivery)
                self._release_parked(channel)
                return

            # -- inline _deliver_app (non-causal tail) --
            self.delivered += 1
            if rel is not None and envelope.pub_seq > 0:
                rel.note_app_delivery(channel, envelope.sender, envelope.pub_seq)
            if tracer.enabled:
                latency = sim.now - envelope.sent_at
                tracer.emit(
                    DeliveryEvent(
                        sim.now,
                        self.node_id,
                        channel,
                        envelope.msg_id,
                        envelope.sender,
                        latency,
                        envelope.plan_version,
                        delivery.server_id,
                    )
                )
                latency_hist, received = tracer.delivery_instruments[channel]
                latency_hist.observe(latency)
                received.inc()

            if self.on_delivery is not None:
                self.on_delivery(channel, envelope, delivery)
            if envelope.sender == self.node_id and self.on_response_time is not None:
                self.on_response_time(channel, sim.now - envelope.sent_at, sim.now)

            sub = self._subs.get(channel)
            if sub is not None:
                sub.callback(channel, body, envelope)
        elif isinstance(message, MappingNotice):
            self.redirects += 1
            self._apply_mapping(message.channel, message.mapping)
        elif isinstance(message, SubscribeAck):
            self._handle_subscribe_ack(message)
        elif isinstance(message, PongReply):
            self._ping_pending[message.server_id] = 0
            self._failed_servers.pop(message.server_id, None)
        elif isinstance(message, ReplayGapNotice):
            if self._rel is not None:
                self._rel.forget_through(
                    message.server_id,
                    message.channel,
                    message.epoch,
                    message.through_seq,
                )
        elif isinstance(message, ConnectionClosed):
            self._handle_disconnect(message.server_id)
        else:
            raise TypeError(f"{self.node_id}: unexpected message {type(message).__name__}")

    # repro: scope[hot]
    def _deliver_app(self, channel: str, envelope: AppEnvelope, delivery: Delivery) -> None:
        """Hand one deduplicated publication to the application."""
        self.delivered += 1
        rel = self._rel
        if rel is not None and envelope.pub_seq > 0:
            rel.note_app_delivery(channel, envelope.sender, envelope.pub_seq)
        tracer = self._tracer
        if tracer.enabled:
            latency = self.sim.now - envelope.sent_at
            tracer.emit(
                DeliveryEvent(
                    self.sim.now,
                    self.node_id,
                    channel,
                    envelope.msg_id,
                    envelope.sender,
                    latency,
                    envelope.plan_version,
                    delivery.server_id,
                )
            )
            latency_hist, received = tracer.delivery_instruments[channel]
            latency_hist.observe(latency)
            received.inc()

        if self.on_delivery is not None:
            self.on_delivery(channel, envelope, delivery)
        if envelope.sender == self.node_id and self.on_response_time is not None:
            self.on_response_time(channel, self.sim.now - envelope.sent_at, self.sim.now)

        sub = self._subs.get(channel)
        if sub is not None:
            sub.callback(channel, envelope.body, envelope)

    # ------------------------------------------------------------------
    # Causal-order parking (repro.core.reliability, causal mode)
    # ------------------------------------------------------------------
    def _park(self, channel: str, envelope: AppEnvelope, delivery: Delivery) -> None:
        """Hold an out-of-order delivery until its dependencies arrive."""
        parked = self._parked.setdefault(channel, [])
        parked.append((envelope, delivery))
        if len(parked) == 1:
            token = self._park_token.get(channel, 0) + 1
            self._park_token[channel] = token
            self.sim.schedule(
                self._rel.config.causal_park_timeout_s,
                self._flush_parked,
                channel,
                token,
            )

    def _release_parked(self, channel: str) -> None:
        """Deliver every parked message whose dependencies are now met."""
        parked = self._parked.get(channel)
        if not parked:
            return
        rel = self._rel
        progress = True
        while progress and parked:
            progress = False
            for index, (envelope, delivery) in enumerate(parked):
                if rel.deliverable(
                    channel, envelope.sender, envelope.pub_seq, envelope.deps
                ):
                    parked.pop(index)
                    self._deliver_app(channel, envelope, delivery)
                    progress = True
                    break
        if not parked:
            del self._parked[channel]
            # Invalidate the pending timeout flush: nothing left to flush.
            self._park_token[channel] = self._park_token.get(channel, 0) + 1

    def _flush_parked(self, channel: str, token: int) -> None:
        """Park timeout: a dependency is apparently lost for good, so the
        channel is force-flushed in arrival order rather than wedged."""
        if not self.alive or self.transport is None:
            return
        if self._park_token.get(channel) != token:
            return  # the parked set drained (or churned) since scheduling
        parked = self._parked.pop(channel, None)
        if not parked:
            return
        self.causal_timeouts += 1
        if self._tracer.enabled:
            self._tracer.emit(
                CausalTimeoutEvent(self.sim.now, self.node_id, channel, len(parked))
            )
            self._tracer.metrics.counter(
                "causal_timeouts_total", client=self.node_id
            ).inc()
        for envelope, delivery in parked:
            self._deliver_app(channel, envelope, delivery)

    def _handle_disconnect(self, server_id: str) -> None:
        """A server closed our connection (overload kill or decommission)."""
        self.disconnects += 1
        affected = [c for c, sub in self._subs.items() if server_id in sub.servers]
        for channel in affected:
            self._subs[channel].servers.discard(server_id)
            acked = self._acked.get(channel)
            if acked is not None:
                acked.discard(server_id)
            # The mapping pointing at a decommissioned server is useless;
            # drop it so the reconnect resolves fresh (CH fallback or a
            # notice from the fallback server's dispatcher).
            entry = self._entries.get(channel)
            if entry is not None and server_id in entry.mapping.servers:
                del self._entries[channel]
        if affected:
            self.sim.schedule(self.RECONNECT_DELAY_S, self._reconnect, tuple(affected))

    def _reconnect(self, channels: Tuple[str, ...]) -> None:
        if not self.alive or self.transport is None:
            return
        for channel in channels:
            sub = self._subs.get(channel)
            if sub is None:
                continue
            self.subscribe(channel, sub.callback)

    # ------------------------------------------------------------------
    # Failure detection & failover recovery (repro.faults subsystem)
    # ------------------------------------------------------------------
    def _live_failed(self, now: float) -> Set[str]:
        """Currently-dead servers; expires marks past the TTL."""
        ttl = self._failed_server_ttl
        expired = [s for s, t in self._failed_servers.items() if now - t >= ttl]
        for server in expired:
            del self._failed_servers[server]
        return set(self._failed_servers)

    def _ping_tick(self, now: float) -> None:
        """Probe every subscribed server; declare it dead after N misses.

        A crashed server never answers (its connection vanished without a
        FIN in this failure model), so consecutive unanswered pings are the
        only client-side liveness signal.  Servers this client recently
        published through are probed as well: a pure publisher would
        otherwise never notice its target died.
        """
        servers: Set[str] = set()
        for sub in self._subs.values():
            servers |= sub.servers
        if self._publish_targets:
            window = 5.0 * (self._ping_interval or 1.0)
            stale = [s for s, t in self._publish_targets.items() if now - t > window]
            for server in stale:
                del self._publish_targets[server]
            servers |= set(self._publish_targets)
        for server in list(self._ping_pending):
            if server not in servers:
                del self._ping_pending[server]
        for server in sorted(servers):
            misses = self._ping_pending.get(server, 0)
            if misses >= self._ping_miss_limit:
                self._on_server_failed(server)
                continue
            self._ping_pending[server] = misses + 1
            self.send(server, PingCmd(), PingCmd.WIRE_SIZE)

    def _on_server_failed(self, server_id: str) -> None:
        """Declare ``server_id`` dead and fail its subscriptions over."""
        now = self.sim.now
        if server_id in self._live_failed(now):
            return  # already failing over
        self._failed_servers[server_id] = now
        self._ping_pending.pop(server_id, None)
        self._publish_targets.pop(server_id, None)
        # Any plan entry routing through the dead server is poison.
        for channel in list(self._entries):
            if server_id in self._entries[channel].mapping.servers:
                del self._entries[channel]
        affected = []
        for channel, sub in self._subs.items():
            if server_id not in sub.servers:
                continue
            sub.servers.discard(server_id)
            acked = self._acked.get(channel)
            if acked is not None:
                acked.discard(server_id)
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
            affected.append(channel)
        self.failovers += 1
        if self._tracer.enabled:
            self._tracer.emit(
                ClientFailoverEvent(now, self.node_id, server_id, tuple(affected))
            )
            self._tracer.metrics.counter("client_failovers_total").inc()
        for channel in affected:
            if channel not in self._recovery_pending:
                self._recovery_pending.add(channel)
                self._try_recover(channel, 0)

    def _try_recover(self, channel: str, attempt: int) -> None:
        """(Re-)establish the channel's subscriptions on live servers."""
        if not self.alive or self.transport is None:
            return
        sub = self._subs.get(channel)
        if sub is None or channel not in self._recovery_pending:
            self._recovery_pending.discard(channel)
            self._recovery_attempt.pop(channel, None)
            return
        self._recovery_attempt[channel] = attempt
        now = self.sim.now
        failed = self._live_failed(now)
        mapping = self._resolve(channel)
        desired = {
            s
            for s in self._desired_sub_servers(mapping, sub.servers)
            if s not in failed
        }
        if not desired:
            # Every candidate is currently marked dead; back off and retry
            # (marks expire, and repair notices may arrive meanwhile).
            self._schedule_recovery_retry(channel, attempt)
            return
        for server in sorted(desired - sub.servers):
            self.send(
                server,
                self._subscribe_cmd(channel, mapping.version, server),
                SubscribeCmd.WIRE_SIZE,
            )
            self.resubscribes += 1
        sub.servers |= desired
        self.sim.schedule(
            self._subscribe_ack_timeout, self._verify_recovery, channel, attempt
        )

    def _verify_recovery(self, channel: str, attempt: int) -> None:
        """Ack check: recovery is done only when every server confirmed."""
        if not self.alive or self.transport is None:
            return
        if self._recovery_attempt.get(channel) != attempt:
            return  # superseded by a newer recovery round
        sub = self._subs.get(channel)
        if sub is None or channel not in self._recovery_pending:
            self._recovery_pending.discard(channel)
            self._recovery_attempt.pop(channel, None)
            return
        acked = self._acked.get(channel, set())
        missing = {s for s in sub.servers if s not in acked}
        # An empty server set is NOT a recovered subscription: a concurrent
        # failover for another channel may have discarded our only target
        # between _try_recover and this check, making "nothing missing"
        # vacuously true.  Keep retrying until a live server actually acks.
        if not missing and sub.servers:
            self._recovery_pending.discard(channel)
            self._recovery_attempt.pop(channel, None)
            self.reconnects += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    ClientReconnectEvent(
                        self.sim.now,
                        self.node_id,
                        channel,
                        tuple(sorted(sub.servers)),
                        attempt + 1,
                    )
                )
                self._tracer.metrics.counter("client_reconnects_total").inc()
            return
        # No ack within the window: that server is dead (or unreachable)
        # too.  Mark it and retry against the next candidate with
        # exponential backoff.
        for server in sorted(missing):
            self._on_server_failed(server)
        self._schedule_recovery_retry(channel, attempt)

    def _schedule_recovery_retry(self, channel: str, attempt: int) -> None:
        delay = min(
            self._reconnect_backoff_base * (2.0 ** attempt),
            self._reconnect_backoff_max,
        )
        self.sim.schedule(delay, self._try_recover, channel, attempt + 1)
