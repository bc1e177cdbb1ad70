"""Per-client connection state on a pub/sub server."""

from __future__ import annotations

from array import array
from typing import Set

#: Expired output-buffer entries are deleted from the front of the arrays
#: once at least this many have accumulated and they are at least half of
#: what is stored, so an idle connection keeps at most ``COMPACT_MIN - 1``
#: stale entries and each entry is moved O(1) times on average.
COMPACT_MIN = 16


class Connection:
    """One client's connection to a pub/sub server.

    Tracks the channels the client is subscribed to and models the server's
    *output buffer* for this connection: every queued delivery adds its wire
    size until its transmission completes.  The server kills the connection
    when the buffered backlog exceeds the configured hard limit -- the exact
    semantics of Redis' ``client-output-buffer-limit pubsub`` policy, and
    the failure mode the paper observes in Experiment 1b.

    The buffer is accounted lazily, with no simulator event per delivery
    and no Python object per delivery: queued deliveries are two parallel
    packed arrays, ``_done_at`` (completion times, ``array("d")``) and
    ``_sizes`` (wire sizes, ``array("q")``), in FIFO order of completion.
    Entries before ``_head`` have expired; whenever the buffer is
    consulted, the entries completed by then are skipped by moving
    ``_head`` forward, and the expired prefix is deleted once it is at
    least :data:`COMPACT_MIN` entries and half the arrays.
    ``_pending_bytes`` is the sum of the live sizes.  The server's fan-out
    loop works on these fields inline.

    ``_busy_until`` is the drain clock under ``per_connection_bps``: the
    server's fan-out loop advances it, and a connection killed and
    re-created on resubscribe starts from a fresh one.
    """

    __slots__ = (
        "client_id",
        "channels",
        "_done_at",
        "_sizes",
        "_head",
        "_pending_bytes",
        "_busy_until",
        "alive",
        "deliveries",
        "bytes_delivered",
    )

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.channels: Set[str] = set()
        self._done_at = array("d")
        self._sizes = array("q")
        self._head: int = 0
        self._pending_bytes: int = 0
        self._busy_until: float = 0.0
        self.alive = True
        self.deliveries: int = 0
        self.bytes_delivered: int = 0

    # ------------------------------------------------------------------
    # Output buffer model
    # ------------------------------------------------------------------
    def _expire(self, now: float) -> None:
        done_at = self._done_at
        head = self._head
        n = len(done_at)
        if head < n and done_at[head] <= now:
            sizes = self._sizes
            pending_bytes = self._pending_bytes
            while head < n and done_at[head] <= now:
                pending_bytes -= sizes[head]
                head += 1
            self._pending_bytes = pending_bytes
            if head >= COMPACT_MIN and 2 * head >= n:
                del done_at[:head]
                del sizes[:head]
                head = 0
            self._head = head

    def buffered_bytes(self, now: float) -> int:
        """Bytes currently sitting in this connection's output buffer."""
        self._expire(now)
        return self._pending_bytes

    def kill(self) -> None:
        """Mark the connection dead and drop its buffered state."""
        self.alive = False
        self._done_at = array("d")
        self._sizes = array("q")
        self._head = 0
        self._pending_bytes = 0
        self.channels.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return (
            f"<Connection {self.client_id} {state} "
            f"channels={len(self.channels)} buffered={self._pending_bytes}B>"
        )
