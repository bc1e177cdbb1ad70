"""Pluggable rebalancing policies (the balancer's decision seam).

Importing this package registers the built-in policies:

* ``paper`` -- Dynamoth's Algorithms 1 & 2 (byte-identical to the
  pre-seam balancer),
* ``least_loaded`` -- greedy busiest-channel-to-least-loaded migration,
* ``ewma_predictive`` -- trend-extrapolated load, acts before overload,
* ``headroom_pace`` -- receivers scored by projected spare capacity,
* ``chbl`` -- consistent hashing with bounded loads (Mirrokni et al.),
* ``consistent_hashing`` -- plain ring placement, the paper's comparator
  (Experiment 2).

Select one via ``DynamothConfig.rebalance_policy``; compare them by
running each on the same scenario with ``python -m repro.lab compare``
(see :mod:`repro.lab`).
"""

from repro.core.policy.base import (
    PolicyContext,
    RebalancePolicy,
    available_policies,
    make_policy,
    policy_class,
    register_policy,
    repair_mappings,
    replicated_channels,
)
from repro.core.policy.chbl import BoundedLoadPolicy
from repro.core.policy.consistent_hashing import ConsistentHashingPolicy
from repro.core.policy.ewma import EwmaPredictivePolicy
from repro.core.policy.greedy import HeadroomPacePolicy, LeastLoadedPolicy
from repro.core.policy.paper import PaperPolicy

__all__ = [
    "BoundedLoadPolicy",
    "ConsistentHashingPolicy",
    "EwmaPredictivePolicy",
    "HeadroomPacePolicy",
    "LeastLoadedPolicy",
    "PaperPolicy",
    "PolicyContext",
    "RebalancePolicy",
    "available_policies",
    "make_policy",
    "policy_class",
    "register_policy",
    "repair_mappings",
    "replicated_channels",
]
