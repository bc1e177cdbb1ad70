"""The round-trip clock of one client-server link (RFC 6298).

A client times two things against its links: gap repair re-asks a broker
for a hole (:class:`~repro.core.reliability.SequenceStage`) and liveness
probing gives a PING up (:class:`~repro.core.client_recovery.ClientRecovery`).
Both wait the link's retransmission timeout, measured here from the round
trips each feeds in (gap repair: each SUBSCRIBE->ack, and fills of holes
asked once; probing: its pongs).  Each owner keeps its own clock per server,
under its own ceiling; gap repair backs off per stream instead of calling
:meth:`LinkClock.back_off`.

The module name puts the estimator's calls in the ``core.client`` layer of
the perf ledger: it runs on every pong of a probing client, and the
ledger books ``core.reliability`` only for the delivery tiers.
"""

from __future__ import annotations

__all__ = ["LinkClock"]


class LinkClock:
    """Retry timeout of one client-server link, measured (RFC 6298):
    ``srtt + max(4 * rttvar, srtt / 2)`` under ``ceiling``, which is also
    the timeout before the first sample.  The floor keeps a jitter-free
    link (``rttvar`` -> 0) off the round trip itself.  Feed it only round
    trips of requests that were never re-sent (Karn's rule)."""

    __slots__ = ("ceiling", "srtt", "rttvar", "timeout")

    def __init__(self, ceiling: float) -> None:
        self.ceiling = ceiling
        self.srtt = 0.0
        self.rttvar = 0.0
        self.timeout = ceiling

    def sample(self, rtt: float) -> None:
        srtt = self.srtt
        if srtt:
            self.rttvar += (abs(srtt - rtt) - self.rttvar) / 4.0
            self.srtt = srtt = srtt + (rtt - srtt) / 8.0
        else:
            self.srtt = srtt = rtt
            self.rttvar = rtt / 2.0
        self.timeout = min(self.ceiling, srtt + max(4.0 * self.rttvar, srtt / 2.0))

    def back_off(self) -> None:
        """A request timed out: double the timeout, up to the ceiling, until
        the next sample recomputes it (RFC 6298 §5.5)."""
        self.timeout = min(self.ceiling, 2.0 * self.timeout)
