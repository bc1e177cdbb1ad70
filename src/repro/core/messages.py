"""Dynamoth control-plane and data-plane message formats.

Application payloads are always wrapped in an :class:`AppEnvelope` before
being handed to the broker.  The envelope carries the message's globally
unique identity -- its sender and the sender's publication number, printed
as the message id -- on which clients drop duplicates (section IV-A.3), the
plan version the publisher routed with (how dispatchers detect stale
publishers), and a ``forwarded`` flag that suppresses dispatcher forwarding
loops.

Control messages either travel as direct actor messages (plan pushes, load
reports, redirect notices) or ride *inside* envelopes published on the
affected channel (switch notices), exactly as in the paper where "all
inter-component communications are done using the pub/sub primitives".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.core.plan import ChannelMapping, Plan


@dataclass(frozen=True, slots=True)
class AppEnvelope:
    """Wrapper around every application publication.

    ``(sender, number)`` is the message's identity: ``number`` is the
    sender's publication counter, and ``msg_id`` prints the pair as
    ``"sender:number"``.  ``number`` has no default -- a defaulted number
    would make every envelope built without one a duplicate of the others.
    ``sent_at`` is the publisher's timestamp, used by the experiment
    harness to measure response time exactly as the paper does (publisher
    receives its own state update back).
    """

    msg_id: str
    sender: str
    number: int
    body: Any
    plan_version: int
    sent_at: float
    forwarded: bool = False
    #: causal-order metadata (``repro.core.reliability``): the sender's
    #: per-channel FIFO publication counter (0 = causal mode off) ...
    pub_seq: int = 0
    #: ... and its dependency snapshot -- (publisher, highest pub_seq the
    #: sender had delivered from that publisher on this channel).
    deps: Tuple[Tuple[str, int], ...] = ()

    def as_forwarded(self) -> "AppEnvelope":
        return AppEnvelope(
            self.msg_id, self.sender, self.number, self.body, self.plan_version, self.sent_at,
            True, self.pub_seq, self.deps,
        )

    #: Envelope framing overhead on the wire, bytes.
    WIRE_OVERHEAD = 32


@dataclass(frozen=True, slots=True)
class SwitchNotice:
    """Published *on the channel itself* to migrate its subscribers.

    Sent by a dispatcher together with the first publication on the channel
    after a plan change (section IV, "Subscriber Change"), and -- as a
    robustness addition -- once more when the forwarding window closes
    while subscribers remain on the old server.
    """

    channel: str
    mapping: ChannelMapping

    WIRE_SIZE = 96


@dataclass(frozen=True, slots=True)
class MappingNotice:
    """Direct server-to-client redirect: "you used the wrong server(s)".

    Covers both the *Initialization* case (client guessed by consistent
    hashing) and the *Publishing on old server* case of section IV.
    """

    channel: str
    mapping: ChannelMapping

    WIRE_SIZE = 96


@dataclass(frozen=True, slots=True)
class PlanPush:
    """Load balancer reliably distributing a new global plan to dispatchers.

    ``stragglers`` is the balancer's snapshot of recently displaced
    servers per channel (server -> forwarding deadline): dispatchers
    merge it into their local registries so that forwarding survives
    chained migrations and reaches dispatchers spawned mid-chain.

    ``failed_servers`` lists servers the balancer currently considers
    dead (heartbeat-confirmed): dispatchers stop forwarding toward them,
    drop them from straggler registries, and re-resolve consistent-hashing
    fallbacks past them on the ring.
    """

    plan: Plan
    stragglers: Any = None
    failed_servers: Tuple[str, ...] = ()

    WIRE_SIZE = 512


@dataclass(frozen=True, slots=True)
class FailureNotice:
    """Dispatcher-to-client: the servers the balancer confirmed dead.

    Sent by every surviving dispatcher to its connected clients when the
    failed set of a :class:`PlanPush` differs from the last one, and to a
    client subscribing later that has not been told yet.  It always carries
    the whole set, so a client replaces its own copy wholesale: a server
    that left the set (re-admitted by the balancer) is routable again.
    """

    failed_servers: Tuple[str, ...]

    WIRE_SIZE = 64


@dataclass(frozen=True, slots=True)
class NoMoreSubscribers:
    """Dispatcher-to-dispatcher: the old server has no subscribers left for
    ``channel``, so forwarding toward it can stop (section IV-A.5)."""

    channel: str
    server_id: str

    WIRE_SIZE = 64


@dataclass(frozen=True, slots=True)
class ChannelMetricsSnapshot:
    """Per-channel aggregate over one LLA report interval."""

    channel: str
    #: publications received per second (averaged over the interval)
    publications_per_s: float
    #: distinct publishers observed during the interval
    publisher_count: int
    #: current number of subscribers on this server
    subscriber_count: int
    #: deliveries sent per second
    messages_out_per_s: float
    #: egress bytes per second attributable to this channel
    bytes_out_per_s: float


@dataclass(frozen=True, slots=True)
class LoadReport:
    """One LLA's aggregate update message to the load balancer.

    Contains "all metrics for all channels ... as well as the theoretical
    maximum outgoing bandwidth supported by that server node [and] the
    measured outgoing bandwidth on the network interface" (section III-A).
    """

    server_id: str
    window_start: float
    window_end: float
    #: ``T_i`` -- nominal maximum egress bandwidth, bytes/second
    nominal_egress_bps: float
    #: ``M_i`` -- measured egress over the window, bytes/second
    measured_egress_bps: float
    channels: Tuple[ChannelMetricsSnapshot, ...]
    #: fraction of one core consumed over the window (can exceed 1.0 when
    #: the CPU queue grows).  Used by the CPU-aware balancing extension
    #: (the paper's future work: "integrate CPU load into our load
    #: balancing algorithms").
    cpu_utilization: float = 0.0

    WIRE_SIZE = 256

    @property
    def load_ratio(self) -> float:
        """``LR_i = M_i / T_i`` (eq. 1)."""
        return self.measured_egress_bps / self.nominal_egress_bps


@dataclass(frozen=True, slots=True)
class ServerSpawned:
    """Cloud notification: a rented server finished booting."""

    server_id: str

    WIRE_SIZE = 64
