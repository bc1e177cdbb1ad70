"""Dynamoth reproduction: scalable channel-based pub/sub for the cloud.

A from-scratch Python implementation of *Dynamoth: A Scalable Pub/Sub
Middleware for Latency-Constrained Applications in the Cloud* (ICDCS 2015),
including every substrate the paper depends on:

* a deterministic discrete-event simulator (:mod:`repro.sim`),
* a WAN/LAN network model with King-dataset-like latencies and
  bandwidth-limited egress (:mod:`repro.net`),
* a Redis-like channel pub/sub server (:mod:`repro.broker`),
* the Dynamoth middleware itself -- plans, hierarchical load balancing,
  channel replication and lazy reconfiguration (:mod:`repro.core`),
* the consistent-hashing baseline, as one more rebalancing policy of the
  same balancer (:mod:`repro.core.policy.consistent_hashing`),
* the RGame massively-multiplayer workload and micro-benchmark workloads
  (:mod:`repro.workload`),
* the experiment harness regenerating every figure of the paper's
  evaluation (:mod:`repro.experiments`).
"""

from repro.core import (
    ChannelMapping,
    ConsistentHashRing,
    DynamothClient,
    DynamothCluster,
    DynamothConfig,
    Plan,
    ReplicationMode,
)
from repro.broker import BrokerConfig

__version__ = "1.0.0"

__all__ = [
    "BrokerConfig",
    "ChannelMapping",
    "ConsistentHashRing",
    "DynamothClient",
    "DynamothCluster",
    "DynamothConfig",
    "Plan",
    "ReplicationMode",
    "__version__",
]
