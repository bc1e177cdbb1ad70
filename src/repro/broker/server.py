"""The pub/sub server actor.

Models a stock Redis instance doing channel pub/sub:

* commands take effect in arrival order, as on Redis's single thread;
* ``SUBSCRIBE`` / ``UNSUBSCRIBE`` maintain per-channel subscriber sets;
* ``PUBLISH`` costs CPU (a base cost plus a per-subscriber delivery cost on
  a single core, a FIFO clock like the NIC's).  ``receive`` fans it out in
  its own frame, on arrival, and its deliveries are queued on the egress
  NIC and on each subscriber's connection from the instant the CPU
  finishes it;
* a subscriber connection whose output buffer exceeds the hard limit is
  killed, Redis-style;
* co-located processes (the dispatcher) attach as loopback observers of
  every publication -- traffic that costs neither NIC bandwidth nor WAN
  latency, matching the paper's observation that local monitoring "does not
  use any local bandwidth".

The server is Dynamoth-agnostic: it never inspects payloads and has no idea
plans or replication exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.broker.config import BrokerConfig
from repro.broker.connection import COMPACT_MIN, Connection
from repro.obs.metrics import FOLD_AT
from repro.obs.trace import (
    NULL_TRACER,
    FanoutEvent,
    FirstUse,
    ReplayEvent,
    ReplayGapEvent,
    ServerSubscribeEvent,
    Tracer,
    channel_class,
)
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    # Annotation-only: the broker is the *data* plane and must not import
    # the control plane at runtime (ARCH001); the reliability sidecar is
    # injected by repro.core wiring and used duck-typed here.
    from repro.core.reliability import BrokerReliability
    from repro.net.transport import Transport
    from repro.obs.metrics import Counter, Gauge, Histogram

#: signature: (channel, publisher_id, payload, payload_size) -> None
LocalSubscriber = Callable[[str, str, Any, int], None]
#: signature: (channel, client_id, plan_version) -> None
SubscribeListener = Callable[[str, str, int], None]
#: signature: (channel, client_id) -> None
UnsubscribeListener = Callable[[str, str], None]
#: a channel's compiled fan-out: (dst_ids, conns, pair_states, dead_count, pair_epoch)
FanoutEntry = Tuple[Tuple[str, ...], Tuple[Connection, ...], List[Optional[List[Any]]], int, int]


class PubSubServer(Actor):
    """A single Redis-like pub/sub server node."""

    #: a server is driven only while registered, so never ``None`` here
    transport: Transport
    #: traced runs only, set in ``__init__``.  channel -> ``(publishes_total,
    #: deliveries_total, egress_bytes_total{server},
    #: fanout_size{channel_class})``, bound on the channel's first
    #: publication here: a server that never publishes registers none.
    _publish_instruments: FirstUse

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: Optional[BrokerConfig] = None,
        *,
        tracer: Tracer = NULL_TRACER,
        reliability: Optional[BrokerReliability] = None,
    ) -> None:
        super().__init__(sim, node_id, is_infra=True)
        self.config = config if config is not None else BrokerConfig()
        self.tracer = tracer
        #: reliable tiers' sequencing + replay cache; ``None`` (at_most_once)
        #: keeps the broker byte-identical to the base semantics.
        self.reliability = reliability
        self._connections: Dict[str, Connection] = {}
        #: channel -> client node ids subscribed remotely.  An
        #: insertion-ordered dict (used as an ordered set) so fan-out
        #: order is deterministic regardless of the process hash seed.
        self._channels: Dict[str, Dict[str, None]] = {}
        #: callbacks observing *every* publication (wildcard loopback
        #: subscription, as the LLA registers itself in the paper)
        self._observers: List[LocalSubscriber] = []
        self._subscribe_listeners: List[SubscribeListener] = []
        self._unsubscribe_listeners: List[UnsubscribeListener] = []
        self._cpu_busy_until: float = 0.0
        #: cumulative CPU seconds consumed by publish processing
        self.cpu_time_total: float = 0.0
        # --- counters (diagnostics / metrics) ---
        self.publish_count: int = 0
        self.delivery_count: int = 0
        self.killed_connections: int = 0
        self.dropped_deliveries: int = 0
        #: channel -> precompiled fan-out arrays ``(dst_ids, conns,
        #: pair_states, dead_count, pair_epoch)``: the subscriber walk and
        #: transport pair resolution done once, reused across publications
        #: until a subscribe/unsubscribe/kill/disconnect touches the
        #: channel (or the transport prunes pair state: ``pair_epoch``).
        self._fanout_cache: Dict[str, FanoutEntry] = {}
        # --- fan-out cache diagnostics (obs summary renders these) ---
        self.fanout_cache_hits: int = 0
        self.fanout_cache_builds: int = 0
        self.fanout_cache_invalidations: int = 0
        #: channel -> ``[publications, publishers, messages_out,
        #: bytes_out]`` accumulated inline as each publication arrives and
        #: drained by the co-located LLA at its window flush -- the
        #: per-publication observer callback the LLA used to pay is gone.
        self._channel_stats: Dict[str, List[Any]] = {}
        self._cache_gauges: Optional[Tuple[Gauge, Gauge, Gauge, Gauge]] = None
        if tracer.enabled:
            metrics = tracer.metrics
            self._cache_gauges = (
                metrics.gauge("fanout_cache_channels", server=node_id),
                metrics.gauge("fanout_cache_hits", server=node_id),
                metrics.gauge("fanout_cache_builds", server=node_id),
                metrics.gauge("fanout_cache_invalidations", server=node_id),
            )
            self._publish_instruments = FirstUse(self._bind_publish_instruments)

    # ------------------------------------------------------------------
    # Introspection used by the LLA and tests
    # ------------------------------------------------------------------
    def channels(self) -> List[str]:
        """Channels with at least one remote subscriber."""
        return [c for c, subs in self._channels.items() if subs]

    def subscriber_count(self, channel: str) -> int:
        return len(self._channels.get(channel, ()))

    def subscribers(self, channel: str) -> Set[str]:
        return set(self._channels.get(channel, ()))

    def is_subscribed(self, channel: str, client_id: str) -> bool:
        return client_id in self._channels.get(channel, ())

    def connection(self, client_id: str) -> Optional[Connection]:
        return self._connections.get(client_id)

    def connected_clients(self) -> List[str]:
        """Clients with a live connection holding at least one subscription, sorted."""
        return sorted(
            client_id
            for client_id, conn in self._connections.items()
            if conn.alive and conn.channels
        )

    def fanout_cache_stats(self) -> Dict[str, int]:
        """Size and hit/build/invalidation counters of the subscriber-array
        cache (``pair_state_count()``-style leak/behaviour diagnostics)."""
        return {
            "channels": len(self._fanout_cache),
            "hits": self.fanout_cache_hits,
            "builds": self.fanout_cache_builds,
            "invalidations": self.fanout_cache_invalidations,
        }

    def drain_channel_stats(self) -> Dict[str, List[Any]]:
        """Hand over and reset the per-channel load accumulators.

        Called by the co-located LLA once per report window; each entry is
        ``[publications, publisher_id_set, messages_out, bytes_out]``.
        """
        stats = self._channel_stats
        self._channel_stats = {}
        return stats

    def cpu_backlog(self, now: float) -> float:
        """Seconds of CPU work queued ahead of a new publish."""
        return max(0.0, self._cpu_busy_until - now)

    # ------------------------------------------------------------------
    # Local (loopback) attachment points
    # ------------------------------------------------------------------
    def add_observer(self, callback: LocalSubscriber) -> None:
        """Attach a wildcard loopback subscriber seeing every publication."""
        self._observers.append(callback)

    def add_subscribe_listener(self, callback: SubscribeListener) -> None:
        """Observe remote SUBSCRIBE commands (LLA / dispatcher intercept)."""
        self._subscribe_listeners.append(callback)

    def add_unsubscribe_listener(self, callback: UnsubscribeListener) -> None:
        self._unsubscribe_listeners.append(callback)

    # ------------------------------------------------------------------
    # Command handling
    # ------------------------------------------------------------------
    def receive(self, message: Any, src_id: str) -> None:
        """Execute one command, in arrival order.

        A ``PUBLISH`` is charged on the CPU clock and fanned out in this
        frame: who receives it, its sequence number, the load accounting
        and the loopback callbacks are decided on arrival, and every clock
        it advances (NIC, drain clocks, output-buffer expiry) starts at
        ``done``, the CPU's completion.
        """
        if not isinstance(message, PublishCmd):
            if isinstance(message, SubscribeCmd):
                self._handle_subscribe(
                    message.channel,
                    src_id,
                    message.plan_version,
                    message.resume_after,
                    message.resume_epoch,
                )
            elif isinstance(message, UnsubscribeCmd):
                self._handle_unsubscribe(message.channel, src_id)
            elif isinstance(message, ReplayRequest):
                self._replay_range(src_id, message.channel, message.epoch, message.seqs)
            elif isinstance(message, PingCmd):
                self.transport.send(
                    self.node_id, src_id, PongReply(self.node_id, message.stamp), PongReply.WIRE_SIZE
                )
            else:
                raise TypeError(f"{self.node_id}: unexpected message {type(message).__name__}")
            return
        # Queue the publish on the CPU clock; the fan-out is decided now, in
        # command order, and its departures wait for ``done``.
        now = self.sim.now
        config = self.config
        channel = message.channel
        subs = self._channels.get(channel)
        fanout = len(subs) if subs else 0
        cost = config.cpu_per_publish_s + fanout * config.cpu_per_delivery_s
        self.cpu_time_total += cost
        start = now if now > self._cpu_busy_until else self._cpu_busy_until
        done = start + cost
        self._cpu_busy_until = done
        self.publish_count += 1
        wire_size = message.payload_size + config.per_message_overhead_bytes
        # Reliable tiers: stamp the publication's sequence number and cache
        # it for replay -- even with zero live subscribers, because a
        # disconnected subscriber will ask for exactly these on resume.
        # Control publications (switch notices) are never sequenced: they
        # are invisible to the application, so stamping them would
        # fabricate gaps no one can observe being filled.
        seq: Optional[int] = None
        epoch = 0
        rel = self.reliability
        if rel is not None and not message.control:
            seq = rel.stamp_and_cache(channel, message.payload, message.payload_size, wire_size)
            epoch = rel.epoch
        # One immutable payload envelope shared by every subscriber's
        # delivery -- the whole fan-out references the same object.
        delivery = Delivery(channel, message.payload, message.payload_size, self.node_id, seq, epoch)

        delivered = 0
        if subs:
            # Precompiled subscriber arrays: the per-subscriber connection
            # walk and transport pair resolution run only when topology
            # changed since the last publication on this channel, not per
            # publication.  ``pair_epoch`` guards against the transport
            # pruning pair state underneath us (node unregistration).
            entry = self._fanout_cache.get(channel)
            if entry is not None and entry[4] == self.transport.pair_epoch:
                self.fanout_cache_hits += 1
            else:
                if entry is not None:
                    self.fanout_cache_invalidations += 1
                entry = self._build_fanout_entry(subs)
                self._fanout_cache[channel] = entry
            dst_ids, conns, states, dead, _ = entry
            if dead:
                self.dropped_deliveries += dead
            if dst_ids:
                rate = config.per_connection_bps
                min_completions: Optional[List[float]] = None
                if rate is not None:
                    # Per-connection drain ceiling: each clock advances by
                    # size / rate from done or its last completion if later.
                    min_completions = []
                    for conn in conns:
                        busy = conn._busy_until
                        start = done if done > busy else busy
                        conn._busy_until = busy = start + wire_size / rate
                        min_completions.append(busy)
                completions = self.transport.send_fanout(
                    self.node_id,
                    dst_ids,
                    states,
                    delivery,
                    wire_size,
                    start=done,
                    min_completions=min_completions,
                )
                delivered = len(dst_ids)
                limit = config.output_buffer_limit_bytes
                kills: List[Tuple[str, Connection]] = []
                # Output-buffer accounting, inline (a method call per
                # delivery would be a quarter of a wide fan-out's calls):
                # each delivery occupies its connection's buffer until its
                # transmit completion; entries expired by ``done`` are
                # skipped first (``Connection._expire``, unrolled), and the
                # occupancy *after* the enqueue is what the hard limit is
                # compared against.
                for dst_id, conn, completion in zip(dst_ids, conns, completions):
                    done_at = conn._done_at
                    pending_bytes = conn._pending_bytes
                    head = conn._head
                    n = len(done_at)
                    if head < n and done_at[head] <= done:
                        sizes = conn._sizes
                        while head < n and done_at[head] <= done:
                            pending_bytes -= sizes[head]
                            head += 1
                        if head >= COMPACT_MIN and 2 * head >= n:
                            del done_at[:head]
                            del sizes[:head]
                            head = 0
                        conn._head = head
                    done_at.append(completion)
                    conn._sizes.append(wire_size)
                    pending_bytes += wire_size
                    conn._pending_bytes = pending_bytes
                    conn.deliveries += 1
                    conn.bytes_delivered += wire_size
                    if pending_bytes > limit:
                        kills.append((dst_id, conn))
                for client_id, conn in kills:
                    self._kill_connection(client_id, conn)
        self.delivery_count += delivered
        # Per-channel load accounting, drained by the LLA at window flush.
        stats = self._channel_stats.get(channel)
        if stats is None:
            self._channel_stats[channel] = stats = [0, set(), 0, 0]
        stats[0] += 1
        stats[1].add(src_id)
        stats[2] += delivered
        stats[3] += delivered * wire_size

        tracer = self.tracer
        if tracer.enabled:
            # The broker stays payload-agnostic: the message id is read
            # duck-typed off whatever envelope the payload happens to be.
            tracer.emit(
                FanoutEvent(
                    now,
                    self.node_id,
                    channel,
                    getattr(message.payload, "msg_id", None),
                    delivered,
                    wire_size,
                )
            )
            publishes, deliveries, egress_bytes, fanout_size = self._publish_instruments[channel]
            # Written in place: a frame per instrument is seven per
            # publication, and none of the amounts can be negative; the
            # fan-out size is one append, bucketed in bulk.
            publishes.value += 1.0
            deliveries.value += delivered
            egress_bytes.value += delivered * wire_size
            pending = fanout_size.pending
            pending.append(delivered)
            if len(pending) >= FOLD_AT:
                fanout_size.fold()
            gauges = self._cache_gauges
            if gauges is not None:
                gauges[0].value = float(len(self._fanout_cache))
                gauges[1].value = float(self.fanout_cache_hits)
                gauges[2].value = float(self.fanout_cache_builds)
                gauges[3].value = float(self.fanout_cache_invalidations)

        # Loopback deliveries: the co-located observers.
        for callback in self._observers:
            callback(channel, src_id, message.payload, message.payload_size)

    def _conn_for(self, client_id: str) -> Connection:
        conn = self._connections.get(client_id)
        if conn is None or not conn.alive:
            conn = Connection(client_id)
            self._connections[client_id] = conn
        return conn

    def _handle_subscribe(
        self,
        channel: str,
        client_id: str,
        plan_version: int = 0,
        resume_after: int = -1,
        resume_epoch: int = -1,
    ) -> None:
        conn = self._conn_for(client_id)
        conn.channels.add(channel)
        self._channels.setdefault(channel, {})[client_id] = None
        self._invalidate_fanout(channel)
        # Redis-style subscription confirmation back to the client.
        ack = SubscribeAck(channel, self.node_id)
        self.transport.send(self.node_id, client_id, ack, SubscribeAck.WIRE_SIZE)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                ServerSubscribeEvent(self.sim.now, self.node_id, channel, client_id, plan_version)
            )
        for listener in self._subscribe_listeners:
            listener(channel, client_id, plan_version)
        # Reconnect resume: replay what this boot cached past the client's
        # last-seen sequence number.  A mismatched epoch means the client's
        # position is from another boot of this id -- a fresh stream, so
        # there is nothing meaningful to replay (replay_slice rejects it).
        if resume_after >= 0 and self.reliability is not None:
            newer = range(resume_after + 1, self.reliability.cache_for(channel).next_seq)
            self._replay_range(client_id, channel, resume_epoch, newer)

    def _handle_unsubscribe(self, channel: str, client_id: str) -> None:
        conn = self._connections.get(client_id)
        if conn is not None:
            conn.channels.discard(channel)
        subs = self._channels.get(channel)
        if subs is not None:
            subs.pop(client_id, None)
            if not subs:
                del self._channels[channel]
        self._invalidate_fanout(channel)
        for listener in self._unsubscribe_listeners:
            listener(channel, client_id)

    def _invalidate_fanout(self, channel: str) -> None:
        """Drop a channel's precompiled fan-out arrays (topology changed)."""
        if self._fanout_cache.pop(channel, None) is not None:
            self.fanout_cache_invalidations += 1

    # ------------------------------------------------------------------
    # Reliable delivery: replay requests and resume-on-subscribe
    # ------------------------------------------------------------------
    def _replay_range(self, client_id: str, channel: str, epoch: int, seqs: Sequence[int]) -> None:
        """Resend the cached publications among ``seqs`` -- the holes a
        :class:`ReplayRequest` names, or everything past a resume point.
        Evicted ones produce a truthful :class:`ReplayGapNotice`; a broker
        without reliable delivery keeps no cache and ignores the request."""
        rel = self.reliability
        if rel is None:
            return
        replay = rel.replay_slice(channel, epoch, seqs)
        if replay is None:
            return
        now, node_id, send, tracer = self.sim.now, self.node_id, self.transport.send, self.tracer
        through, entries = replay.gap_through, replay.entries
        if through > 0:
            rel.unrecoverable_gaps += 1
            notice = ReplayGapNotice(node_id, channel, epoch, through)
            send(node_id, client_id, notice, ReplayGapNotice.WIRE_SIZE)
            if tracer.enabled:
                gap = ReplayGapEvent(now, node_id, channel, client_id, epoch, seqs[0], through)
                tracer.emit(gap)
        if not entries:
            return
        total_bytes = 0
        for entry in entries:
            delivery = Delivery(
                channel, entry.payload, entry.payload_size, node_id, entry.seq, epoch, True
            )
            send(node_id, client_id, delivery, entry.wire_size)
            total_bytes += entry.wire_size
        rel.replayed_messages += len(entries)
        rel.replayed_bytes += total_bytes
        if tracer.enabled:
            tracer.emit(
                ReplayEvent(
                    now, node_id, channel, client_id, epoch,
                    entries[0].seq, entries[-1].seq, len(entries), total_bytes,
                )
            )
            metrics = tracer.metrics
            metrics.counter("replayed_messages_total", server=node_id).inc(len(entries))
            metrics.counter("replayed_bytes_total", server=node_id).inc(total_bytes)

    def _bind_publish_instruments(self, channel: str) -> Tuple[Counter, Counter, Counter, Histogram]:
        metrics = self.tracer.metrics
        return (
            metrics.counter("publishes_total", server=self.node_id),
            metrics.counter("deliveries_total", server=self.node_id),
            metrics.counter("egress_bytes_total", server=self.node_id),
            metrics.histogram("fanout_size", channel_class=channel_class(channel)),
        )

    def _build_fanout_entry(self, subs: Dict[str, None]) -> FanoutEntry:
        """Compile a channel's subscriber dict into flat fan-out arrays.

        Dead or missing connections are excluded and counted in ``dead``
        so every later publication charges :attr:`dropped_deliveries`
        exactly as the uncached per-publication walk did.
        """
        connections = self._connections
        dst_ids: List[str] = []
        conns: List[Connection] = []
        dead = 0
        for client_id in subs:
            conn = connections.get(client_id)
            if conn is None or not conn.alive:
                dead += 1
                continue
            dst_ids.append(client_id)
            conns.append(conn)
        states = self.transport.fanout_states(self.node_id, dst_ids)
        self.fanout_cache_builds += 1
        return (
            tuple(dst_ids),
            tuple(conns),
            states,
            dead,
            self.transport.pair_epoch,
        )

    def _kill_connection(self, client_id: str, conn: Connection) -> None:
        """Enforce the output-buffer hard limit: disconnect the client."""
        for channel in sorted(conn.channels):
            self._handle_unsubscribe(channel, client_id)
        conn.kill()
        self.killed_connections += 1
        if self.tracer.enabled:
            self.tracer.metrics.counter(
                "killed_connections_total", server=self.node_id
            ).inc()
        del self._connections[client_id]
        closed = ConnectionClosed(self.node_id, "output-buffer-overflow")
        # A reset is out-of-band: it is not queued behind the buffered
        # deliveries the client will never receive.
        self.transport.send(
            self.node_id, client_id, closed, ConnectionClosed.WIRE_SIZE, fifo=False
        )

    def close_all_connections(self) -> None:
        """Notify every connected client and drop all state (shutdown).

        Models the TCP FINs a decommissioned Redis instance sends; clients
        react by re-resolving their channels elsewhere.
        """
        closed = ConnectionClosed(self.node_id, "server-shutdown")
        for client_id, conn in list(self._connections.items()):
            conn.kill()
            self.transport.send(
                self.node_id, client_id, closed, ConnectionClosed.WIRE_SIZE, fifo=False
            )
        self._connections.clear()
        self._channels.clear()
        self.fanout_cache_invalidations += len(self._fanout_cache)
        self._fanout_cache.clear()

    def disconnect(self, client_id: str) -> None:
        """Cleanly remove a client (e.g. a player leaving the game)."""
        conn = self._connections.pop(client_id, None)
        if conn is None:
            return
        for channel in sorted(conn.channels):
            self._handle_unsubscribe(channel, client_id)
        conn.kill()
