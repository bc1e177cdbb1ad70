"""The paper's hierarchical rebalancer behind the policy seam.

This policy is a *pure delegation* to :mod:`repro.core.rebalance`: its
channel-level hook is Algorithm 1, its system-level hook runs Algorithm 2
when any server is at ``LR^high`` and the low-load drain otherwise, and
:meth:`~repro.core.policy.base.RebalancePolicy.decide` composes the two.
Its decisions are pinned in ``tests/core/policy/test_policy_seam.py`` and
end to end by the golden trace digests.  Any behavioural change to the
paper's algorithms belongs in :mod:`repro.core.rebalance`, not here.
"""

from __future__ import annotations

from typing import ClassVar, Dict

from repro.core.plan import ChannelMapping
from repro.core.policy.base import PolicyContext, RebalancePolicy
from repro.core.rebalance import (
    LoadEstimator,
    RebalanceDecision,
    channel_level_rebalance,
    drain_when_idle,
    high_load_rebalance,
)


class PaperPolicy(RebalancePolicy):
    """Dynamoth's Algorithms 1 & 2 plus low-load draining (section III-B)."""

    name: ClassVar[str] = "paper"
    algorithm1_replication: ClassVar[bool] = True

    def channel_level(
        self, ctx: PolicyContext, estimator: LoadEstimator
    ) -> Dict[str, ChannelMapping]:
        return channel_level_rebalance(
            ctx.plan, ctx.view, ctx.config, ctx.active_servers, estimator
        )

    def system_level(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        replicated: set[str],
    ) -> RebalanceDecision:
        if any(estimator.load_ratio(s) >= ctx.config.lr_high for s in ctx.active_servers):
            mappings, spawn = high_load_rebalance(
                ctx.config, ctx.active_servers, estimator, replicated
            )
            return RebalanceDecision(mappings, spawn_servers=spawn)
        mappings, decommission = drain_when_idle(ctx, estimator, replicated)
        return RebalanceDecision(mappings, decommission=decommission)
