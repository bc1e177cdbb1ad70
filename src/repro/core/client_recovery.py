"""Client-side failure detection and failover recovery.

A crashed server never answers (its connection vanished without a FIN in
this failure model), so unanswered pings are a client's own liveness
signal; the other is a :class:`~repro.core.messages.FailureNotice` from a
surviving dispatcher once the balancer confirms the crash.  Both reach the
client's one server-loss path (``DynamothClient._server_down``), which
hands the resubscription to :meth:`ClientRecovery.fail_over` when probing
is on.

A ping is judged on the link's own round-trip clock
(:class:`~repro.core.client_link.LinkClock`), fed by the pongs: a probe
unanswered for the link's retransmission timeout is re-sent at once on a
doubled clock, capped at ``client_ping_interval_s``, and
``client_ping_miss_limit`` consecutive unanswered probes make the
suspicion.  Before a link's first sample the timeout *is* the interval,
so detection is never later than one ping per interval would make it.

A :class:`DynamothClient` builds a :class:`ClientRecovery` only when
``client_ping_interval_s`` is set: off by default because pong traffic
perturbs measured egress; the sends are fully deterministic (no RNG, no
jitter), so enabling it changes nothing else.  With probing off a lost
server's channels are resubscribed once, after a short delay, as on an
overload kill (``ConnectionClosed``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.broker.commands import PingCmd
from repro.core.client_link import LinkClock
from repro.core.config import DynamothConfig
from repro.obs.trace import ClientReconnectEvent
from repro.sim.kernel import ScheduledEvent
from repro.sim.timers import PeriodicTask

if TYPE_CHECKING:
    from repro.core.client import DynamothClient

#: one probe round on one server, ``(stamp, misses, timer)``: the time the
#: probe was first sent (its pong echoes it), how many times it has timed
#: out, and the timer of its latest send
_Round = Tuple[float, int, ScheduledEvent]


class ClientRecovery:
    """Ping, suspect dead, fail over, verify by ack, back off and retry.

    ``failed`` and ``publish_targets`` are public because the client's
    per-message paths touch them without a call: ``_resolve`` tests
    ``failed`` for emptiness, ``publish`` stores into ``publish_targets``.
    """

    def __init__(self, client: "DynamothClient", config: DynamothConfig) -> None:
        interval = config.client_ping_interval_s
        if interval is None:
            raise ValueError("ClientRecovery needs client_ping_interval_s")
        self._client = client
        self._config = config
        #: the ping interval: the probe timeout before a link's first
        #: sample, and its ceiling after
        self._interval = interval
        #: server -> time this client suspected it dead on its own pings or
        #: acks.  An unconfirmed suspicion expires after
        #: ``failed_server_ttl_s``; a server the balancer confirms leaves
        #: this dict for the client's ``_down`` set, which has no TTL.
        self.failed: Dict[str, float] = {}
        #: server -> last time the client published through it.  Pure
        #: publishers have no subscriptions to probe, so liveness checks
        #: must also cover recently-used publish targets -- otherwise a
        #: publisher keeps sending into a dead server forever.
        self.publish_targets: Dict[str, float] = {}
        #: server -> round-trip clock of the link to it, fed by pongs
        self._links: Dict[str, LinkClock] = {}
        #: server -> the probe round in flight (a pong or a suspicion ends it)
        self._rounds: Dict[str, _Round] = {}
        #: channel -> servers whose SubscribeAck we have seen
        self._acked: Dict[str, Set[str]] = {}
        #: channels with a failover recovery in flight
        self._pending: Set[str] = set()
        #: channel -> newest recovery attempt number (stale timers ignored)
        self._attempt: Dict[str, int] = {}
        self._ping_task = PeriodicTask(client.sim, interval, self._ping_tick)
        self._ping_task.start()

    def stop(self) -> None:
        self._ping_task.stop()
        for server in list(self._rounds):
            self._end_round(server)

    def pong(self, server_id: str, stamp: float) -> None:
        """``server_id`` answered the probe first sent at ``stamp``: the round
        in flight ends (any pong shows the server alive), and times the link
        if it answers that round's probe and the probe was never re-sent
        (Karn's rule: a re-sent probe's pong matches either send)."""
        probe = self._rounds.pop(server_id, None)
        if probe is not None:
            probe[2].cancel()
            if stamp == probe[0] and not probe[1]:
                self._links[server_id].sample(self._client.sim.now - stamp)
        self.failed.pop(server_id, None)

    def ack(self, channel: str, server_id: str) -> None:
        self._acked.setdefault(channel, set()).add(server_id)

    def unack(self, server_id: str, channels: List[str]) -> None:
        """``server_id`` was detached from ``channels``: its acks are void."""
        for channel in channels:
            acked = self._acked.get(channel)
            if acked is not None:
                acked.discard(server_id)

    def forget(self, channel: str) -> None:
        """The client unsubscribed: nothing left to recover on ``channel``."""
        self._acked.pop(channel, None)
        self._pending.discard(channel)
        self._attempt.pop(channel, None)

    def live_failed(self, now: float) -> Set[str]:
        """Currently-suspected servers; expires marks past the TTL."""
        failed = self.failed
        ttl = self._config.failed_server_ttl_s
        for server in list(failed):
            if now - failed[server] >= ttl:
                del failed[server]
        return set(failed)

    def _ping_tick(self, now: float) -> None:
        """Start a probe round on every subscribed server without one.

        Servers this client recently published through are probed as
        well: a pure publisher would otherwise never notice its target
        died.  A round still in flight runs on its own clock.  On the
        reliable tiers the tick also re-sends a SUBSCRIBE unacked for gap
        repair's ceiling: one lost on a lossy link (or its ack) would
        otherwise leave the stream unstarted for good.
        """
        client = self._client
        if client._sequence is not None:
            for server, channel, version in client._sequence.unacked(now):
                sub = client._subs.get(channel)
                if sub is not None and server in sub.servers:
                    client._send_subscribe(channel, version, server)
        servers: Set[str] = set()
        for sub in client._subs.values():
            servers |= sub.servers
        targets = self.publish_targets
        if targets:
            window = 5.0 * self._interval
            for server in list(targets):
                if now - targets[server] > window:
                    del targets[server]
            servers |= set(targets)
        rounds = self._rounds
        for server in list(rounds):
            if server not in servers:
                self._end_round(server)
        links = self._links
        for server in sorted(servers):
            if server not in rounds:
                link = links.get(server) or links.setdefault(server, LinkClock(self._interval))
                self._probe(server, now, 0, link.timeout)

    def _probe(self, server: str, stamp: float, misses: int, timeout: float) -> None:
        """PING ``server`` and give it ``timeout`` to answer; a re-send
        (``misses`` > 0) carries the round's first ``stamp``."""
        client = self._client
        timer = client.sim.schedule(timeout, self._probe_timed_out, server)
        self._rounds[server] = (stamp, misses, timer)
        client.send(server, PingCmd(stamp), PingCmd.WIRE_SIZE)

    def _probe_timed_out(self, server: str) -> None:
        """No pong within the timeout: one more miss.  Short of the limit the
        PING goes again at once, and the link's clock backs off (RFC 6298
        §5.5) -- up to the interval, where the schedule is one PING per
        interval again."""
        stamp, misses, _ = self._rounds[server]
        misses += 1
        if misses >= self._config.client_ping_miss_limit:
            del self._rounds[server]
            self._on_server_failed(server)
            return
        link = self._links[server]
        link.back_off()
        self._probe(server, stamp, misses, link.timeout)

    def _end_round(self, server: str) -> None:
        self._rounds.pop(server)[2].cancel()

    def _on_server_failed(self, server_id: str) -> None:
        """Suspect ``server_id`` dead on this client's own evidence."""
        client = self._client
        now = client.sim.now
        if server_id in client._down or server_id in self.live_failed(now):
            return  # confirmed dead, or already failing over
        self.failed[server_id] = now
        client._server_down(server_id)

    def fail_over(self, server_id: str, affected: List[str]) -> None:
        """Recovery's share of a lost server: stop probing it and resubscribe
        each of ``affected`` in ack-verified rounds."""
        if server_id in self._rounds:
            self._end_round(server_id)
        self.publish_targets.pop(server_id, None)
        for channel in affected:
            if channel not in self._pending:
                self._pending.add(channel)
                self._try_recover(channel, 0)

    def _try_recover(self, channel: str, attempt: int) -> None:
        """(Re-)establish the channel's subscriptions on live servers."""
        client = self._client
        if not client.alive or client.transport is None:
            return
        sub = client._subs.get(channel)
        if sub is None or channel not in self._pending:
            return  # unsubscribed, or already recovered: both cleaned up
        self._attempt[channel] = attempt
        failed = self.live_failed(client.sim.now) | client._down
        mapping = client._resolve(channel)
        desired = client._desired_sub_servers(mapping, sub.servers) - failed
        if not desired:
            # Every candidate is currently marked dead; back off and retry
            # (marks expire, and repair notices may arrive meanwhile).
            self._schedule_retry(channel, attempt)
            return
        acked = self._acked.get(channel)
        for server in sorted(desired - sub.servers):
            # Only an ack of *this* SUBSCRIBE may confirm the recovery: one
            # left over from before a migration moved us off ``server``
            # would let _verify_recovery vouch for a server that is gone.
            if acked is not None:
                acked.discard(server)
            client._send_subscribe(channel, mapping.version, server)
            client.resubscribes += 1
        sub.servers |= desired
        client.sim.schedule(
            self._config.subscribe_ack_timeout_s, self._verify_recovery, channel, attempt
        )

    def _verify_recovery(self, channel: str, attempt: int) -> None:
        """Ack check: recovery is done only when every server confirmed."""
        client = self._client
        if not client.alive or client.transport is None:
            return
        if self._attempt.get(channel) != attempt:
            return  # superseded by a newer recovery round
        sub = client._subs[channel]  # a matching attempt means still subscribed
        missing = sub.servers.difference(self._acked.get(channel, ()))
        # An empty server set is NOT a recovered subscription: a concurrent
        # failover for another channel may have discarded our only target
        # between _try_recover and this check, making "nothing missing"
        # vacuously true.  Keep retrying until a live server actually acks.
        if not missing and sub.servers:
            self._pending.discard(channel)
            del self._attempt[channel]
            client.reconnects += 1
            tracer = client._tracer
            if tracer.enabled:
                servers = tuple(sorted(sub.servers))
                tracer.emit(
                    ClientReconnectEvent(client.sim.now, client.node_id, channel, servers, attempt + 1)
                )
                tracer.metrics.counter("client_reconnects_total").inc()
            return
        # No ack within the window: that server is dead (or unreachable)
        # too.  Mark it and retry against the next candidate with
        # exponential backoff.
        for server in sorted(missing):
            self._on_server_failed(server)
        self._schedule_retry(channel, attempt)

    def _schedule_retry(self, channel: str, attempt: int) -> None:
        delay = min(
            self._config.reconnect_backoff_base_s * (2.0 ** attempt),
            self._config.reconnect_backoff_max_s,
        )
        self._client.sim.schedule(delay, self._try_recover, channel, attempt + 1)
