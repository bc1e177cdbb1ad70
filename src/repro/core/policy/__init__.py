"""Pluggable rebalancing policies (the balancer's decision seam).

The built-in policies, one table keyed by ``DynamothConfig.rebalance_policy``:

* ``paper`` -- Dynamoth's Algorithms 1 & 2 plus the low-load drain,
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

from typing import Dict, List, Type

from repro.core.config import DynamothConfig
from repro.core.policy.base import (
    PolicyContext,
    RebalancePolicy,
    repair_mappings,
    replicated_channels,
)
from repro.core.policy.chbl import BoundedLoadPolicy
from repro.core.policy.consistent_hashing import ConsistentHashingPolicy
from repro.core.policy.ewma import EwmaPredictivePolicy
from repro.core.policy.greedy import HeadroomPacePolicy, LeastLoadedPolicy
from repro.core.policy.paper import PaperPolicy

_POLICIES: Dict[str, Type[RebalancePolicy]] = {
    cls.name: cls
    for cls in (
        PaperPolicy,
        LeastLoadedPolicy,
        EwmaPredictivePolicy,
        HeadroomPacePolicy,
        BoundedLoadPolicy,
        ConsistentHashingPolicy,
    )
}


def policy_class(name: str) -> Type[RebalancePolicy]:
    cls = _POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown rebalance policy {name!r}; "
            f"registered: {', '.join(available_policies())}"
        )
    return cls


def make_policy(config: DynamothConfig) -> RebalancePolicy:
    """Instantiate the policy named by ``config.rebalance_policy``."""
    return policy_class(config.rebalance_policy)(config)


def available_policies() -> List[str]:
    """Policy names, sorted for stable CLI/report output."""
    return sorted(_POLICIES)


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
    "repair_mappings",
    "replicated_channels",
]
