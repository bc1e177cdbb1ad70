"""Consistent hashing ring.

Dynamoth uses consistent hashing in two roles:

* as the universal *fallback* mapping ("plan 0"): a client or dispatcher
  with no plan entry for a channel hashes the channel onto the bootstrap
  ring (section II-C);
* as the *baseline* load-distribution scheme the paper compares against
  (:mod:`repro.core.policy.consistent_hashing`).

Each server owns ``vnodes`` virtual identifiers (``VNODES_PER_SERVER``
unless a caller says otherwise); a channel maps to the
server owning the first identifier clockwise of the channel's hash.  Adding
or removing a server therefore only remaps ~1/N of the channels.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Collection, Dict, List, Sequence, Tuple

#: Virtual identifiers per server on every ring the middleware builds.
VNODES_PER_SERVER = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash (Python's ``hash()`` is process-randomized)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """A consistent-hashing ring with virtual nodes."""

    def __init__(self, servers: Sequence[str] = (), vnodes: int = VNODES_PER_SERVER):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes!r}")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        self._servers: Dict[str, bool] = {}
        for server in servers:
            self.add_server(server)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def servers(self) -> List[str]:
        """Servers currently on the ring, in insertion order."""
        return list(self._servers)

    def __len__(self) -> int:
        return len(self._servers)

    def __contains__(self, server_id: str) -> bool:
        return server_id in self._servers

    def add_server(self, server_id: str) -> None:
        """Place ``server_id``'s virtual identifiers on the ring."""
        if server_id in self._servers:
            raise ValueError(f"server already on ring: {server_id}")
        self._servers[server_id] = True
        for i in range(self.vnodes):
            point = _hash64(f"{server_id}#vnode{i}")
            index = bisect.bisect_left(self._keys, point)
            self._keys.insert(index, point)
            self._points.insert(index, (point, server_id))

    def remove_server(self, server_id: str) -> None:
        """Remove all of ``server_id``'s virtual identifiers."""
        if server_id not in self._servers:
            raise KeyError(f"server not on ring: {server_id}")
        del self._servers[server_id]
        kept = [(p, s) for (p, s) in self._points if s != server_id]
        self._points = kept
        self._keys = [p for (p, __) in kept]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, channel: str, exclude: Collection[str] = ()) -> str:
        """Server responsible for ``channel``.

        ``exclude`` names servers to walk past on the ring -- the failure
        fallback: when a channel's ring-determined server is known dead,
        every node excluding the same failed set independently agrees on
        the next live server clockwise.  If every server is excluded the
        primary is returned anyway (the caller has nowhere better to go).
        """
        if not self._points:
            raise RuntimeError("consistent hash ring is empty")
        point = _hash64(channel)
        index = bisect.bisect_right(self._keys, point)
        if index == len(self._keys):
            index = 0
        if not exclude:
            return self._points[index][1]
        total = len(self._points)
        for offset in range(total):
            __, server = self._points[(index + offset) % total]
            if server not in exclude:
                return server
        return self._points[index][1]

    def lookup_n(self, channel: str, n: int) -> List[str]:
        """The ``n`` distinct servers clockwise of ``channel``'s hash.

        Used when a fallback needs several candidate servers (e.g. seeding
        replication before any plan exists).
        """
        if not self._points:
            raise RuntimeError("consistent hash ring is empty")
        n = min(n, len(self._servers))
        point = _hash64(channel)
        index = bisect.bisect_right(self._keys, point)
        result: List[str] = []
        seen = set()
        total = len(self._points)
        for offset in range(total):
            __, server = self._points[(index + offset) % total]
            if server not in seen:
                seen.add(server)
                result.append(server)
                if len(result) == n:
                    break
        return result

    def copy(self) -> "ConsistentHashRing":
        ring = ConsistentHashRing(vnodes=self.vnodes)
        ring._points = list(self._points)
        ring._keys = list(self._keys)
        ring._servers = dict(self._servers)
        return ring

    def assignment(self, channels: Sequence[str]) -> Dict[str, str]:
        """Map each channel to its server (bulk convenience)."""
        return {c: self.lookup(c) for c in channels}
