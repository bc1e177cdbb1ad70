"""Network substrate: latency models, bandwidth-limited links, transport.

This package emulates the paper's experimental network (section V-B):

* Clients reach the cloud over a WAN whose one-way delays are sampled from a
  synthetic model fit to the King dataset's North-America subset
  (:class:`~repro.net.latency.KingLatencyModel`).
* Infrastructure nodes (pub/sub servers, dispatchers, LLAs, the load
  balancer) talk to each other over a low-latency cloud LAN.
* Every infrastructure node has a bandwidth-limited egress NIC
  (:class:`~repro.net.link.EgressPort`); the paper's key observation is
  that *outgoing bandwidth saturates before CPU*, so egress is modelled
  carefully: messages queue FIFO and drain at the port's capacity, and the
  port's running byte total feeds the Local Load Analyzers.
"""

from repro.net.latency import (
    FixedLatency,
    KingLatencyModel,
    LanLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.link import EgressPort
from repro.net.transport import Transport

__all__ = [
    "EgressPort",
    "FixedLatency",
    "KingLatencyModel",
    "LanLatency",
    "LatencyModel",
    "Transport",
    "UniformLatency",
]
