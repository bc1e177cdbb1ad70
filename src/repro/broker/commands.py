"""Wire commands and events of the pub/sub protocol.

These are the only message types a :class:`~repro.broker.server.PubSubServer`
understands or emits.  Dynamoth's own control traffic (plan pushes, switch
notices, ...) rides *inside* :class:`PublishCmd` / :class:`Delivery`
payloads or as direct actor messages -- the broker never inspects payloads,
faithful to the paper's "no changes to Redis itself" constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple


@dataclass(frozen=True, slots=True)
class SubscribeCmd:
    """Client asks the server to add it to a channel's subscriber set.

    ``plan_version`` is the version of the channel mapping the client
    routed with (0 = consistent-hashing fallback).  The broker ignores it,
    but the co-located dispatcher reads it to detect subscribers acting on
    stale plans -- e.g. every CH-fallback subscriber of a replicated
    channel would otherwise pile onto the same ring-determined server.

    ``resume_after``/``resume_epoch`` carry the client's replay resume
    point when the reliability layer is active (MigratoryData-style
    reconnect): the broker replays cached publications with a higher
    sequence number if the epoch matches its current boot.  The defaults
    (-1) mean "no resume requested" and keep the command byte-identical
    for unreliable runs.
    """

    channel: str
    plan_version: int = 0
    resume_after: int = -1
    resume_epoch: int = -1

    #: Approximate wire size of a subscribe command in bytes.
    WIRE_SIZE = 64


@dataclass(frozen=True, slots=True)
class UnsubscribeCmd:
    """Client asks the server to drop its subscription to a channel."""

    channel: str

    WIRE_SIZE = 64


@dataclass(frozen=True, slots=True)
class PublishCmd:
    """Client publishes ``payload`` on ``channel``.

    ``payload_size`` is the application payload size in bytes; the server
    adds per-message protocol overhead when forwarding to subscribers.

    ``control`` marks middleware control traffic riding the pub/sub
    primitives (dispatcher switch notices): the reliability layer must not
    sequence or cache it -- control publications are invisible to the
    application ledger, so stamping them would fabricate gaps.
    """

    channel: str
    payload: Any
    payload_size: int
    control: bool = False


@dataclass(frozen=True, slots=True)
class SubscribeAck:
    """Server confirms a subscription is established (Redis sends a
    ``subscribe`` confirmation message for exactly this purpose).

    The Dynamoth client library uses acks to order reconfiguration steps:
    it only tells a channel's *old* servers that it has reconciled after
    the *new* servers acknowledged its subscriptions, closing the race
    where forwarding stops while the new subscriptions are still in
    flight.
    """

    channel: str
    server_id: str

    WIRE_SIZE = 64


@dataclass(frozen=True, slots=True)
class PingCmd:
    """Client-side liveness probe (Redis ``PING message``).

    The Dynamoth client library sends these to every server it holds
    subscriptions on; a run of unanswered pings marks the server dead and
    triggers subscription failover.  The message is ``stamp``, the client's
    clock when the probe was first sent, and the pong echoes it, so a pong
    names the probe it answers.  A stock broker answers PING with its
    message, so this needs no broker modification.
    """

    stamp: float

    WIRE_SIZE = 16


@dataclass(frozen=True, slots=True)
class PongReply:
    """Server's answer to :class:`PingCmd`: the probe's ``stamp``, echoed."""

    server_id: str
    stamp: float = 0.0

    WIRE_SIZE = 16


@dataclass(frozen=True, slots=True)
class Delivery:
    """Server forwards a publication to one subscriber.

    ``seq``/``epoch`` are stamped by the owning broker when the
    reliability layer is active (``seq`` stays ``None`` otherwise -- and
    always for control publications); ``replayed`` marks gap-repair and
    resume redeliveries so clients and oracles can tell them from the
    original fan-out.
    """

    channel: str
    payload: Any
    payload_size: int
    #: node id of the server that performed the delivery (lets the Dynamoth
    #: client library detect deliveries from servers it is migrating away
    #: from).
    server_id: str
    seq: Optional[int] = None
    epoch: int = 0
    replayed: bool = False


@dataclass(frozen=True, slots=True)
class ReplayRequest:
    """Client asks the broker to resend cached publications by number:
    ``seqs`` names exactly the holes that are due (just found, or asked for
    a retry timeout ago), ascending.  The broker answers with replayed
    :class:`Delivery` messages and, for evicted ones, a :class:`ReplayGapNotice`."""

    channel: str
    epoch: int
    seqs: Tuple[int, ...]

    @property
    def wire_size(self) -> int:
        return 32 + 8 * len(self.seqs)  # the fixed part + each number named


@dataclass(frozen=True, slots=True)
class ReplayGapNotice:
    """Broker's truthful "those are gone": cache eviction passed
    ``through_seq``, so sequence numbers at or below it cannot be
    replayed.  The client stops chasing them and the check harness
    records the window as an unrecoverable (excused) gap."""

    server_id: str
    channel: str
    epoch: int
    through_seq: int

    WIRE_SIZE = 64


@dataclass(frozen=True, slots=True)
class ConnectionClosed:
    """Server notifies a client that it was forcibly disconnected.

    ``reason`` is ``"output-buffer-overflow"`` when the Redis-style
    client-output-buffer hard limit was exceeded.
    """

    server_id: str
    reason: str

    WIRE_SIZE = 64
