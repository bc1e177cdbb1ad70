"""Broker resource-model configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class BrokerConfig:
    """Resource model of one pub/sub server node.

    The defaults are calibrated so that the *relative* saturation points of
    the paper's experiments are reproduced; absolute values stand in for
    the paper's lab machines ("the values ... were determined empirically
    based on the capabilities of the machines at our disposal").

    Attributes
    ----------
    nominal_egress_bps:
        ``T_i`` of eq. 1 -- the maximum outgoing bandwidth the node
        advertises to the load balancer, in bytes/second.
    egress_headroom:
        The actual NIC drain rate is ``egress_headroom * nominal_egress_bps``.
        Real NICs sustain slightly more than the advertised figure, which
        is why measured load ratios in the paper can exceed 1.0 (servers
        were observed to fail near LR = 1.15).
    cpu_per_publish_s:
        CPU seconds to parse and route one inbound PUBLISH command.
    cpu_per_delivery_s:
        CPU seconds to serialize one outbound delivery to one subscriber.
        Saturation of the single-core CPU at high fan-out is what bends the
        non-replicated curve of Experiment 1a.
    per_message_overhead_bytes:
        Protocol framing added to every delivery on the wire.
    output_buffer_limit_bytes:
        Redis-style per-connection output buffer hard limit; a subscriber
        connection whose buffered backlog exceeds this is killed
        (Experiment 1b's failure mode).
    per_connection_bps:
        Maximum drain rate of a single subscriber connection (TCP / client
        uplink ceiling).  ``None`` means only the shared NIC limits it.
    """

    nominal_egress_bps: float = 4_000_000.0
    egress_headroom: float = 1.2
    cpu_per_publish_s: float = 20e-6
    cpu_per_delivery_s: float = 25e-6
    per_message_overhead_bytes: int = 48
    output_buffer_limit_bytes: int = 1_048_576
    per_connection_bps: Optional[float] = 1_000_000.0

    def __post_init__(self) -> None:
        if self.nominal_egress_bps <= 0:
            raise ValueError("nominal_egress_bps must be positive")
        if self.egress_headroom < 1.0:
            raise ValueError("egress_headroom must be >= 1.0")
        if self.cpu_per_publish_s < 0 or self.cpu_per_delivery_s < 0:
            raise ValueError("CPU costs must be non-negative")
        if self.per_message_overhead_bytes < 0:
            raise ValueError("per_message_overhead_bytes must be non-negative")
        if self.output_buffer_limit_bytes <= 0:
            raise ValueError("output_buffer_limit_bytes must be positive")
        if self.per_connection_bps is not None and self.per_connection_bps <= 0:
            raise ValueError("per_connection_bps must be positive or None")

    @property
    def actual_egress_bps(self) -> float:
        """The NIC's true drain rate in bytes/second."""
        return self.nominal_egress_bps * self.egress_headroom
