"""Bandwidth-limited egress ports.

The paper's Local Load Analyzers report, per server, the measured outgoing
bandwidth ``M_i``; the load ratio ``LR_i = M_i / T_i`` (eq. 1) is the single
signal the rebalancer acts on.  :class:`EgressPort` provides both halves of
that with a FIFO queue clock and two totals: transmissions drain at the
port's capacity (so an overloaded server's deliveries back up and response
times climb), and ``total_bytes`` counts everything sent -- an LLA measures
``M_i`` as its delta over a report window.
"""

from __future__ import annotations

from typing import List, Optional


class EgressPort:
    """A FIFO, rate-limited network egress interface.

    ``capacity_bps`` is the *actual* drain rate in bytes per second.  For
    pub/sub servers the cluster configures it as ``headroom * nominal``
    where ``nominal`` is the capacity advertised to the load balancer
    (``T_i``): real NICs sustain slightly more than their nominal rating,
    which is how the paper can observe load ratios above 1.0 and report
    that Redis fails once LR exceeds ~1.15.

    A port with ``capacity_bps=None`` is unlimited (used for client nodes,
    whose uplinks are never the bottleneck in the paper's setup).
    """

    def __init__(self, capacity_bps: Optional[float] = None) -> None:
        if capacity_bps is not None and capacity_bps <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bps!r}")
        self.capacity_bps = capacity_bps
        self._busy_until: float = 0.0
        self.total_bytes: int = 0
        self.total_messages: int = 0

    @property
    def busy_until(self) -> float:
        """Instant at which the currently queued transmissions finish."""
        return self._busy_until

    def queued_delay(self, now: float) -> float:
        """Seconds of transmission backlog currently ahead of a new message."""
        return max(0.0, self._busy_until - now)

    def transmit(self, now: float, size_bytes: int) -> float:
        """Enqueue a transmission; return its completion time.

        The message starts transmitting when the port becomes free and
        occupies it for ``size / capacity`` seconds.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if self.capacity_bps is None:
            completion = now
        else:
            start = now if now > self._busy_until else self._busy_until
            completion = start + size_bytes / self.capacity_bps
            self._busy_until = completion
        self.total_bytes += size_bytes
        self.total_messages += 1
        return completion

    def transmit_many(self, now: float, size_bytes: int, count: int) -> List[float]:
        """Enqueue ``count`` equal-size transmissions back to back.

        Equivalent to calling :meth:`transmit` ``count`` times (same float
        accumulation), but with one call and one backlog lookup.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if count < 0:
            raise ValueError(f"negative message count: {count!r}")
        if count == 0:
            return []
        if self.capacity_bps is None:
            self.total_bytes += size_bytes * count
            self.total_messages += count
            return [now] * count
        per = size_bytes / self.capacity_bps
        c = now if now > self._busy_until else self._busy_until
        completions: List[float] = []
        append = completions.append
        for _ in range(count):
            c += per  # iterative, matching sequential transmit() floats
            append(c)
        self._busy_until = c
        self.total_bytes += size_bytes * count
        self.total_messages += count
        return completions
