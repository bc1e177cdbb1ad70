"""Per-client connection state on a pub/sub server."""

from __future__ import annotations

from collections import deque
from typing import Deque, Set, Tuple


class Connection:
    """One client's connection to a pub/sub server.

    Tracks the channels the client is subscribed to and models the server's
    *output buffer* for this connection: every queued delivery adds its wire
    size until its transmission completes.  The server kills the connection
    when the buffered backlog exceeds the configured hard limit -- the exact
    semantics of Redis' ``client-output-buffer-limit pubsub`` policy, and
    the failure mode the paper observes in Experiment 1b.

    The buffer is accounted lazily: pending deliveries are kept in a deque
    of ``(completion_time, size)`` and expired entries are popped whenever
    the buffer is consulted, so no extra simulator events are needed.

    ``_busy_until`` is the drain clock under ``per_connection_bps``: the
    server's fan-out loop advances it, and a connection killed and
    re-created on resubscribe starts from a fresh one.
    """

    __slots__ = (
        "client_id",
        "channels",
        "_pending",
        "_pending_bytes",
        "_busy_until",
        "alive",
        "deliveries",
        "bytes_delivered",
    )

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.channels: Set[str] = set()
        self._pending: Deque[Tuple[float, int]] = deque()
        self._pending_bytes: int = 0
        self._busy_until: float = 0.0
        self.alive = True
        self.deliveries: int = 0
        self.bytes_delivered: int = 0

    # ------------------------------------------------------------------
    # Output buffer model
    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        pending = self._pending
        while pending and pending[0][0] <= now:
            __, size = pending.popleft()
            self._pending_bytes -= size

    def buffered_bytes(self, now: float) -> int:
        """Bytes currently sitting in this connection's output buffer."""
        self._expire(now)
        return self._pending_bytes

    def kill(self) -> None:
        """Mark the connection dead and drop its buffered state."""
        self.alive = False
        self._pending.clear()
        self._pending_bytes = 0
        self.channels.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return (
            f"<Connection {self.client_id} {state} "
            f"channels={len(self.channels)} buffered={self._pending_bytes}B>"
        )
