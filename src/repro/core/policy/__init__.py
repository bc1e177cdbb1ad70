"""Pluggable rebalancing policies (the balancer's decision seam).

Importing this package registers the built-in policies:

* ``paper`` -- Dynamoth's Algorithms 1 & 2 (byte-identical to the
  pre-seam balancer),
* ``least_loaded`` -- greedy busiest-channel-to-least-loaded migration,
* ``ewma_predictive`` -- trend-extrapolated load, acts before overload,
* ``headroom_pace`` -- receivers scored by projected spare capacity,
* ``chbl`` -- consistent hashing with bounded loads (Mirrokni et al.).

Select one via ``DynamothConfig.rebalance_policy``; compare them offline
with ``python -m repro.lab compare`` (see :mod:`repro.lab`).
"""

from repro.core.policy.base import (
    PolicyContext,
    RebalancePolicy,
    SystemDecision,
    available_policies,
    make_policy,
    policy_class,
    register_policy,
    repair_mappings,
    replicated_channels,
)
from repro.core.policy.chbl import BoundedLoadPolicy
from repro.core.policy.ewma import EwmaPredictivePolicy
from repro.core.policy.greedy import HeadroomPacePolicy, LeastLoadedPolicy
from repro.core.policy.paper import PaperPolicy

__all__ = [
    "BoundedLoadPolicy",
    "EwmaPredictivePolicy",
    "HeadroomPacePolicy",
    "LeastLoadedPolicy",
    "PaperPolicy",
    "PolicyContext",
    "RebalancePolicy",
    "SystemDecision",
    "available_policies",
    "make_policy",
    "policy_class",
    "register_policy",
    "repair_mappings",
    "replicated_channels",
]
