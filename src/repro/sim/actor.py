"""Actor base class for simulated nodes.

Every participant in the system -- game clients, Redis-like pub/sub servers,
local load analyzers, dispatchers, the load balancer -- is an actor: it has
a globally unique ``node_id``, lives on the shared simulator clock, and
receives messages through :meth:`Actor.receive` after the network substrate
has applied transmission and propagation delays.

Actors are tagged as *infrastructure* or *client* nodes.  The distinction
drives latency sampling exactly as in the paper (section V-B): messages
between two infrastructure nodes travel over the cloud LAN, messages
between a client and an infrastructure node take one WAN sample.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.kernel import Simulator


class Actor:
    """Base class for all simulated nodes."""

    #: Optional message tap ``(src, dst, message, size_bytes) -> None``,
    #: fired on every outbound send.  A class-level ``None`` default keeps
    #: the untapped cost at one attribute check; the cluster assigns the
    #: tracer's tap per instance when tracing is enabled.
    tap: Optional[Any] = None

    def __init__(self, sim: Simulator, node_id: str, *, is_infra: bool) -> None:
        self.sim = sim
        self.node_id = node_id
        self.is_infra = is_infra
        #: Set by the transport when the actor is registered.
        self.transport: Optional[Any] = None
        #: Whether the node is up.  Messages to a down node are dropped.
        self.alive = True

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst_id: str, message: Any, size_bytes: int) -> None:
        """Send ``message`` to actor ``dst_id`` through the network."""
        if self.transport is None:
            raise RuntimeError(f"actor {self.node_id} is not attached to a transport")
        if self.tap is not None:
            self.tap(self.node_id, dst_id, message, size_bytes)
        self.transport.send(self.node_id, dst_id, message, size_bytes)

    def receive(self, message: Any, src_id: str) -> None:
        """Handle a delivered message.  Subclasses override this."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Mark the node as down; the transport stops delivering to it.

        A message in flight looks ``receive`` up on the instance when it
        lands, and from now on finds the transport's dead letter there.
        """
        self.alive = False
        if self.transport is not None:
            vars(self)["receive"] = self.transport.dead_letter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "infra" if self.is_infra else "client"
        return f"<{type(self).__name__} {self.node_id} ({kind})>"
