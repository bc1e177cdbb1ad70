"""Bandwidth-limited egress ports and per-second byte accounting.

The paper's Local Load Analyzers report, per server and per second, the
measured outgoing bandwidth ``M_i``; the load ratio ``LR_i = M_i / T_i``
(eq. 1) is the single signal the rebalancer acts on.  :class:`EgressPort`
provides both halves of that: a FIFO transmission queue that drains at the
port's capacity (so an overloaded server's deliveries back up and response
times climb), and :class:`SecondBuckets` counters that expose the measured
egress bytes for each wall-clock second of virtual time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class SecondBuckets:
    """Per-second byte counters with cheap harvesting.

    ``add(t, n)`` attributes ``n`` bytes to the second ``floor(t)``;
    ``drain_until(t)`` returns and forgets all complete buckets strictly
    before second ``floor(t)`` so the caller (an LLA) can aggregate them.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}

    def add(self, time: float, nbytes: int) -> None:
        second = int(time)
        self._buckets[second] = self._buckets.get(second, 0) + nbytes

    def peek(self, second: int) -> int:
        """Bytes recorded for a specific second (0 if none)."""
        return self._buckets.get(second, 0)

    def drain_until(self, time: float) -> List[Tuple[int, int]]:
        """Remove and return ``(second, bytes)`` pairs before ``floor(time)``.

        Pairs are returned in increasing second order.
        """
        horizon = int(time)
        ready = sorted(s for s in self._buckets if s < horizon)
        return [(s, self._buckets.pop(s)) for s in ready]

    def total(self) -> int:
        """Sum of all not-yet-drained buckets (diagnostic)."""
        return sum(self._buckets.values())


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
        self.buckets = SecondBuckets()
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
        occupies it for ``size / capacity`` seconds.  Bytes are attributed
        to the second in which transmission *completes*, which is what a
        NIC byte counter sampled once per second would report.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if self.capacity_bps is None:
            completion = now
        else:
            start = now if now > self._busy_until else self._busy_until
            completion = start + size_bytes / self.capacity_bps
            self._busy_until = completion
        buckets = self.buckets._buckets
        second = int(completion)
        buckets[second] = buckets.get(second, 0) + size_bytes
        self.total_bytes += size_bytes
        self.total_messages += 1
        return completion

    def transmit_many(self, now: float, size_bytes: int, count: int) -> List[float]:
        """Enqueue ``count`` equal-size transmissions back to back.

        Equivalent to calling :meth:`transmit` ``count`` times (same float
        accumulation, same per-second byte attribution), but with one call,
        one backlog lookup, and bucket updates aggregated per touched
        second -- the dominant cost of a large fan-out burst otherwise.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if count < 0:
            raise ValueError(f"negative message count: {count!r}")
        if count == 0:
            return []
        if self.capacity_bps is None:
            self.buckets.add(now, size_bytes * count)
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
        # Attribute bytes per completion second, aggregating consecutive
        # runs that land in the same second into one bucket update.
        buckets = self.buckets
        run_second = int(completions[0])
        run_bytes = 0
        for completion in completions:
            second = int(completion)
            if second != run_second:
                buckets._buckets[run_second] = (
                    buckets._buckets.get(run_second, 0) + run_bytes
                )
                run_second = second
                run_bytes = 0
            run_bytes += size_bytes
        buckets._buckets[run_second] = buckets._buckets.get(run_second, 0) + run_bytes
        self.total_bytes += size_bytes * count
        self.total_messages += count
        return completions
