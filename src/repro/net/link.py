"""Bandwidth-limited egress ports: the state of a node's NIC clock.

The paper's Local Load Analyzers report, per server, the measured outgoing
bandwidth ``M_i``; the load ratio ``LR_i = M_i / T_i`` (eq. 1) is the single
signal the rebalancer acts on.  :class:`EgressPort` holds both halves of
that: a FIFO queue clock (``busy_until``) and two totals.  The transport
advances them in its own send frames -- transmissions drain at the port's
capacity, so an overloaded server's deliveries back up and response times
climb -- and ``total_bytes`` counts everything sent: an LLA measures
``M_i`` as its delta over a report window.
"""

from __future__ import annotations

from typing import Optional


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

    The port is state only; :class:`~repro.net.transport.Transport` owns
    the arithmetic.  A message handed to the NIC at ``now`` starts when the
    port is free (``max(now, busy_until)``) and occupies it for
    ``size / capacity`` seconds; back-to-back messages accumulate that
    quotient one addition at a time.
    """

    def __init__(self, capacity_bps: Optional[float] = None) -> None:
        if capacity_bps is not None and capacity_bps <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bps!r}")
        self.capacity_bps = capacity_bps
        #: instant at which the currently queued transmissions finish
        self.busy_until: float = 0.0
        self.total_bytes: int = 0
        self.total_messages: int = 0

    def queued_delay(self, now: float) -> float:
        """Seconds of transmission backlog currently ahead of a new message."""
        return max(0.0, self.busy_until - now)
