"""The per-node dispatcher: lazy, loss-free reconfiguration (section IV).

One dispatcher runs next to every pub/sub server.  It holds the full
current global plan (pushed reliably by the load balancer) and watches the
local server's traffic over loopback -- publications, subscriptions and
unsubscriptions -- to implement the transition protocol:

* **Wrong server** (Fig. 3a): a publication arriving at a server not in the
  channel's mapping is forwarded to the correct server(s); the publisher is
  redirected with a :class:`~repro.core.messages.MappingNotice`; local
  subscribers are asked to move via a :class:`SwitchNotice` published on
  the channel itself, together with the first publication after the change.
* **Correct server** (Fig. 3b): while old servers still hold subscribers
  for a moved channel, every publication is also forwarded to them.
* **Stale publishers** under *all-publishers* replication published to too
  few servers; the dispatcher completes the fan-out and redirects them.
* **Termination**: an old server's dispatcher announces
  :class:`NoMoreSubscribers` the moment its last local subscriber leaves,
  and every transition expires after the plan-entry timeout.  As a
  robustness addition, a draining server with subscribers remaining at
  expiry publishes one final switch notice so no subscriber is stranded on
  a channel that went quiet during the window.
* **Failure notices**: when a plan push changes the set of servers the
  balancer confirmed dead, the dispatcher tells every client connected to
  its server with a :class:`FailureNotice`, and each later subscriber once,
  so no client's consistent-hashing fallback keeps landing on a dead server.

The dispatcher never modifies the pub/sub server -- it only uses loopback
subscriptions, plain publishes and direct cloud-internal sends, exactly the
constraint the paper works under ("ready-to-use pub/sub servers that cannot
be modified").
"""

from __future__ import annotations

from random import Random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Mapping, Optional, Set, Tuple

from repro.broker.commands import PublishCmd
from repro.broker.server import PubSubServer
from repro.core.messages import (
    AppEnvelope,
    FailureNotice,
    MappingNotice,
    NoMoreSubscribers,
    PlanPush,
    SwitchNotice,
)
from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.stragglers import StragglerRegistry
from repro.obs.trace import (
    NULL_TRACER,
    PlanAppliedEvent,
    SwitchNoticeEvent,
    Tracer,
)
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator


#: Repair buffering: a repaired channel's new home holds publications for
#: this long (and at most this many) after the repair plan arrives,
#: replaying them when the first recovering subscriber resubscribes.
REPAIR_BUFFER_S = 5.0
REPAIR_BUFFER_MAX_MSGS = 64


def dispatcher_id(server_id: str) -> str:
    """Deterministic dispatcher node id for a given server."""
    return f"dispatcher@{server_id}"


@dataclass
class _Watch:
    """Transition state for one channel whose mapping just changed."""

    version: int
    mapping: ChannelMapping
    #: True when this server was in the old mapping but not the new one.
    draining: bool
    #: local subscribers that held the channel under the *old* mapping and
    #: have not yet confirmed the new one (by re-subscribing with the new
    #: version, unsubscribing, or disconnecting).  Once empty, peers are
    #: told to stop forwarding toward this server.
    stale_subscribers: Set[str] = field(default_factory=set)
    #: whether NoMoreSubscribers was already announced for this watch
    announced: bool = False


@dataclass
class _RepairBuffer:
    """Publications parked while failed-over subscribers resubscribe.

    Created when a repair plan re-homes a dead server's channel onto this
    server; flushed (republished locally) on the first subscribe so clients
    racing their resubscribe against in-flight traffic do not miss the
    window.  Bounded in both time and size -- overflow drops the oldest
    message, keeping the documented at-most-once semantics during repair.
    """

    deadline: float
    messages: Deque[Tuple[AppEnvelope, int]]


class Dispatcher(Actor):
    """Reconfiguration agent co-located with one pub/sub server."""

    def __init__(
        self,
        sim: Simulator,
        server: PubSubServer,
        initial_plan: Plan,
        rng: Random,
        *,
        plan_entry_timeout_s: float = 30.0,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(sim, dispatcher_id(server.node_id), is_infra=True)
        self.server = server
        self.plan = initial_plan
        self._rng = rng
        self._timeout = plan_entry_timeout_s
        self._tracer = tracer

        self._watch: Dict[str, _Watch] = {}
        #: the balancer node id, learned from plan pushes (drain
        #: announcements are copied there so the balancer's own straggler
        #: registry stops re-seeding drained entries into future pushes)
        self._balancer_id: Optional[str] = None
        #: servers that may still hold unreconciled subscribers, kept from
        #: the full plan stream so forwarding survives *chained* migrations
        #: (pub1 -> pub2 -> pub3 while a subscriber is still stuck behind
        #: pub1's congested downlink)
        self._stragglers = StragglerRegistry(plan_entry_timeout_s, server.node_id)
        #: channel -> plan version for which a switch notice went out
        self._switch_sent: Dict[str, int] = {}
        #: resolved-mapping cache; cleared on every plan push (avoids a
        #: ring hash per observed publication)
        self._mapping_cache: Dict[str, ChannelMapping] = {}
        self._msg_counter = 0
        #: servers the balancer confirmed dead (from plan pushes): no
        #: forwarding toward them, and CH fallbacks resolve past them
        self._failed: Set[str] = set()
        #: clients sent a FailureNotice of the current ``_failed``; reset on
        #: every change of it, ``None`` until the first change (nothing to tell)
        self._told: Optional[Set[str]] = None
        #: channel -> parked publications awaiting a post-repair subscribe
        self._repair_buffers: Dict[str, _RepairBuffer] = {}

        # --- counters ---
        self.forwarded_publications = 0
        self.redirects_sent = 0
        self.switch_notices_sent = 0
        self.plans_received = 0
        self.buffered_publications = 0
        self.replayed_publications = 0

        server.add_observer(self._on_publication)
        server.add_subscribe_listener(self._on_subscribe)
        server.add_unsubscribe_listener(self._on_unsubscribe)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _mapping(self, channel: str) -> ChannelMapping:
        cached = self._mapping_cache.get(channel)
        if cached is None:
            cached = self.plan.mapping(channel)
            if (
                cached.version == 0
                and self._failed
                and any(s in self._failed for s in cached.servers)
            ):
                # CH fallback landing on a dead server: walk the ring past
                # every confirmed-failed server.  (Explicitly mapped
                # channels are re-homed by the balancer's repair plan
                # instead.)
                cached = ChannelMapping(
                    ReplicationMode.SINGLE,
                    (self.plan.ring.lookup(channel, exclude=self._failed),),
                    0,
                )
            self._mapping_cache[channel] = cached
        return cached

    def _forward_targets(self, mapping: ChannelMapping) -> Tuple[str, ...]:
        """Servers a misrouted publication must be forwarded to."""
        if mapping.mode is ReplicationMode.ALL_SUBSCRIBERS:
            return (self._rng.choice(mapping.servers),)
        return mapping.servers

    def _forward(self, channel: str, envelope: AppEnvelope, payload_size: int, dst: str) -> None:
        """Ship a publication to another pub/sub server inside the cloud."""
        forwarded = envelope.as_forwarded()
        self.send(dst, PublishCmd(channel, forwarded, payload_size), payload_size)
        self.forwarded_publications += 1
        if self._tracer.enabled:
            self._tracer.metrics.counter(
                "forwarded_publications_total", server=self.server.node_id
            ).inc()

    def _tell(self, client_id: str, told: Set[str]) -> None:
        """Send ``client_id`` the current confirmed-dead set, once per change."""
        told.add(client_id)
        notice = FailureNotice(tuple(sorted(self._failed)))
        self.send(client_id, notice, FailureNotice.WIRE_SIZE)

    def _redirect(self, client_id: str, channel: str, mapping: ChannelMapping) -> None:
        self.send(client_id, MappingNotice(channel, mapping), MappingNotice.WIRE_SIZE)
        self.redirects_sent += 1
        if self._tracer.enabled:
            self._tracer.metrics.counter(
                "redirects_total", server=self.server.node_id
            ).inc()

    def _maybe_switch_notice(self, channel: str, mapping: ChannelMapping) -> None:
        """Publish a switch notice locally if anyone here still listens.

        Callers test ``_switch_sent`` first: a notice goes out once per
        (channel, version).
        """
        if self.server.subscriber_count(channel) == 0:
            return
        self._switch_sent[channel] = mapping.version
        self._msg_counter += 1
        envelope = AppEnvelope(
            msg_id=f"{self.node_id}:{self._msg_counter}",
            sender=self.node_id,
            number=self._msg_counter,
            body=SwitchNotice(channel, mapping),
            plan_version=mapping.version,
            sent_at=self.sim.now,
        )
        # Control traffic: the reliability layer must not sequence it.
        cmd = PublishCmd(channel, envelope, SwitchNotice.WIRE_SIZE, control=True)
        self.send(self.server.node_id, cmd, SwitchNotice.WIRE_SIZE)
        self.switch_notices_sent += 1
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                SwitchNoticeEvent(
                    self.sim.now, self.server.node_id, channel, mapping.version
                )
            )

    # ------------------------------------------------------------------
    # Plan pushes
    # ------------------------------------------------------------------
    def receive(self, message: Any, src_id: str) -> None:
        if isinstance(message, PlanPush):
            self._balancer_id = src_id
            failed = set(message.failed_servers)
            failed_changed = failed != self._failed
            if failed_changed:
                # Applied even when the plan itself is stale or a duplicate
                # (resurrections re-push the same version): routing must
                # stop targeting dead servers immediately.
                self._failed = failed
                self._mapping_cache.clear()
                if failed:
                    self._stragglers.drop_dead(failed)
            self._handle_plan(message.plan, message.stragglers)
            if failed_changed:
                # Survivors tell their clients, whose consistent-hashing
                # fallback would otherwise keep landing on a dead server.
                told: Set[str] = set()
                self._told = told
                for client_id in self.server.connected_clients():
                    self._tell(client_id, told)
        elif isinstance(message, NoMoreSubscribers):
            self._stragglers.drain(message.channel, message.server_id)
        else:
            raise TypeError(f"{self.node_id}: unexpected message {type(message).__name__}")

    def _handle_plan(
        self,
        new_plan: Plan,
        pushed_stragglers: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> None:
        if new_plan.version <= self.plan.version:
            return  # stale or duplicate push
        changed = self.plan.diff(new_plan)
        self.plan = new_plan
        self._mapping_cache.clear()
        self.plans_received += 1
        if self._tracer.enabled:
            self._tracer.emit(
                PlanAppliedEvent(self.sim.now, self.node_id, new_plan.version)
            )

        if pushed_stragglers:
            # Merge the balancer's plan-history view: it covers moves that
            # happened before this dispatcher existed (chained migrations).
            self._stragglers.merge(pushed_stragglers)
        # Every dispatcher records the displaced servers, involved or not:
        # a later plan change may put this server into the channel's
        # mapping, and it must then keep forwarding toward *all* earlier
        # homes that still hold unreconciled subscribers.
        now = self.sim.now
        self._stragglers.record(changed, now)

        my_id = self.server.node_id
        for channel, (old, new) in changed.items():  # diff order is sorted
            if my_id in new.servers and set(old.servers) & self._failed:
                # This server inherited the channel from a dead one: park
                # incoming publications until a failed-over subscriber's
                # resubscribe lands, then replay them (at-most-once).
                self._repair_buffers[channel] = _RepairBuffer(
                    deadline=now + REPAIR_BUFFER_S,
                    messages=deque(maxlen=REPAIR_BUFFER_MAX_MSGS),
                )

            involved = my_id in old.servers or my_id in new.servers
            if not involved:
                continue
            drained = set(old.servers) - set(new.servers)
            draining = my_id in drained
            stale = (
                set(self.server.subscribers(channel))
                if my_id in old.servers
                else set()
            )
            watch = _Watch(
                version=new.version,
                mapping=new,
                draining=draining,
                stale_subscribers=stale,
            )
            self._watch[channel] = watch
            self.sim.schedule(self._timeout, self._expire_watch, channel, new.version)
            if my_id in old.servers and not stale:
                # Nothing to reconcile here: tell the peers at once.
                self._announce_drained(channel, watch)

    def _announce_drained(self, channel: str, watch: _Watch) -> None:
        """Tell *all* dispatchers no unreconciled subscriber remains here.

        Broadcast (rather than new-mapping-only) because under chained
        migrations the servers currently forwarding toward us may not be
        in the mapping we were displaced by.
        """
        if watch.announced:
            return
        watch.announced = True
        notice = NoMoreSubscribers(channel, self.server.node_id)
        for server in self.plan.active_servers:
            if server != self.server.node_id:
                self.send(dispatcher_id(server), notice, NoMoreSubscribers.WIRE_SIZE)
        if self._balancer_id is not None:
            self.send(self._balancer_id, notice, NoMoreSubscribers.WIRE_SIZE)

    def _expire_watch(self, channel: str, version: int) -> None:
        if not self.alive:
            return  # this dispatcher's node crashed after scheduling
        watch = self._watch.get(channel)
        if watch is None or watch.version != version:
            return  # superseded by a newer plan change
        if watch.draining and self.server.subscriber_count(channel) > 0:
            # Final nudge: the channel went quiet during the whole window,
            # so no publication carried the switch notice.  Emit one now so
            # the remaining subscribers still move over.
            self._maybe_switch_notice(channel, watch.mapping)
        del self._watch[channel]

    # ------------------------------------------------------------------
    # Local traffic observation (loopback)
    # ------------------------------------------------------------------
    # repro: scope[hot]
    def _on_publication(
        self, channel: str, publisher_id: str, payload: Any, payload_size: int
    ) -> None:
        if not isinstance(payload, AppEnvelope):
            return
        envelope = payload
        if isinstance(envelope.body, SwitchNotice):
            return  # our own (or a peer dispatcher's) control publication

        watch = self._watch.get(channel)
        mapping = self._mapping_cache.get(channel)
        if mapping is None:
            mapping = self._mapping(channel)
        if watch is not None and self._switch_sent.get(channel, -1) < mapping.version:
            self._maybe_switch_notice(channel, mapping)
        if self._repair_buffers and self.server.node_id in mapping.servers:
            self._buffer_for_repair(channel, envelope, payload_size)
        if envelope.forwarded:
            return  # a peer dispatcher already handled routing

        my_id = self.server.node_id
        if my_id not in mapping.servers:
            # Wrong server: Initialization / Publishing-on-old-server cases.
            self._redirect(envelope.sender, channel, mapping)
            if self._switch_sent.get(channel, -1) < mapping.version:
                self._maybe_switch_notice(channel, mapping)
            targets = set(self._forward_targets(mapping))
            # ... and cover straggler servers the correct servers may not
            # know about (their registry merge could still be in flight).
            targets.update(
                self._stragglers.targets(channel, mapping, self.sim.now, self._failed)
            )
            for target in sorted(targets):
                self._forward(channel, envelope, payload_size, target)
            return

        # Correct server.
        if envelope.plan_version < mapping.version:
            self._redirect(envelope.sender, channel, mapping)
            if mapping.mode is ReplicationMode.ALL_PUBLISHERS:
                # A stale publisher likely missed the other replicas; the
                # subscriber-side dedup absorbs any double send.
                for server in mapping.servers:
                    if server != my_id:
                        self._forward(channel, envelope, payload_size, server)
        stragglers = self._stragglers
        if channel in stragglers.entries:
            for server in stragglers.targets(channel, mapping, self.sim.now, self._failed):
                self._forward(channel, envelope, payload_size, server)

    def _buffer_for_repair(self, channel: str, envelope: AppEnvelope, payload_size: int) -> None:
        buffer = self._repair_buffers.get(channel)
        if buffer is None:
            return
        if buffer.deadline <= self.sim.now:
            del self._repair_buffers[channel]
            return
        buffer.messages.append((envelope, payload_size))
        self.buffered_publications += 1

    def _flush_repair_buffer(self, channel: str) -> None:
        """Replay parked publications now that a subscriber (re)attached.

        The buffer is popped *before* republishing, so the replayed copies
        (which come back through ``_on_publication`` as forwarded traffic)
        cannot re-enter it.  Subscribers already attached dedup the replays
        by message id.
        """
        buffer = self._repair_buffers.pop(channel, None)
        if buffer is None:
            return
        if buffer.deadline <= self.sim.now:
            return
        for envelope, size in buffer.messages:
            self.send(
                self.server.node_id,
                PublishCmd(channel, envelope.as_forwarded(), size),
                size,
            )
            self.replayed_publications += 1
        if self._tracer.enabled and buffer.messages:
            self._tracer.metrics.counter(
                "repair_replays_total", server=self.server.node_id
            ).inc(len(buffer.messages))

    def _on_subscribe(self, channel: str, client_id: str, plan_version: int) -> None:
        told = self._told
        if told is not None and client_id not in told:
            # A client that connected after the last failure change.
            self._tell(client_id, told)
        if self._repair_buffers:
            self._flush_repair_buffer(channel)
        watch = self._watch.get(channel)
        if watch is not None and plan_version >= watch.version:
            # The client confirmed the new mapping; it is reconciled.
            watch.stale_subscribers.discard(client_id)
            if not watch.stale_subscribers:
                self._announce_drained(channel, watch)
        mapping = self._mapping(channel)
        if self.server.node_id not in mapping.servers:
            # Client subscribed on an incorrect server (section IV-A.4).
            self._redirect(client_id, channel, mapping)
        elif plan_version < mapping.version:
            # Valid server, stale plan: under replication the client must
            # still learn the full mapping -- an all-subscribers subscriber
            # has to cover every replica, and a CH-fallback subscriber of
            # an all-publishers channel would otherwise pile onto the
            # ring-determined server instead of picking a random replica.
            self._redirect(client_id, channel, mapping)

    def _on_unsubscribe(self, channel: str, client_id: str) -> None:
        watch = self._watch.get(channel)
        if watch is None:
            return
        watch.stale_subscribers.discard(client_id)
        if not watch.stale_subscribers:
            self._announce_drained(channel, watch)
