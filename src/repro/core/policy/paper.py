"""The paper's hierarchical rebalancer behind the policy seam.

This policy is a *pure delegation* to :mod:`repro.core.rebalance` -- the
hooks call the exact Algorithm 1 / Algorithm 2 / low-load-drain functions
with the exact gating that ``generate_decision`` composes, so plans
produced through the seam are the reference's (asserted decision for
decision by ``tests/core/policy/test_policy_seam.py`` and end to end by the
golden trace digests).
Any behavioural change to the paper's algorithms belongs in
:mod:`repro.core.rebalance`, not here.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List, Tuple

from repro.core.plan import ChannelMapping
from repro.core.policy.base import (
    PolicyContext,
    RebalancePolicy,
    register_policy,
)
from repro.core.rebalance import (
    LoadEstimator,
    RebalanceDecision,
    channel_level_rebalance,
    drain_when_idle,
    high_load_rebalance,
)


@register_policy
class PaperPolicy(RebalancePolicy):
    """Dynamoth's Algorithms 1 & 2 plus low-load draining (section III-B)."""

    name: ClassVar[str] = "paper"
    algorithm1_replication: ClassVar[bool] = True

    def channel_level(
        self, ctx: PolicyContext, estimator: LoadEstimator
    ) -> Tuple[Dict[str, ChannelMapping], List[str]]:
        return channel_level_rebalance(
            ctx.plan, ctx.view, ctx.config, ctx.active_servers, estimator
        )

    def system_level(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        replicated: set[str],
    ) -> RebalanceDecision:
        decision = RebalanceDecision()
        lr_values = [estimator.load_ratio(s) for s in ctx.active_servers]
        if any(lr >= ctx.config.lr_high for lr in lr_values):
            proposals, spawn, notes = high_load_rebalance(
                ctx.plan, ctx.config, ctx.active_servers, estimator, replicated
            )
            decision.mappings.update(proposals)
            decision.spawn_servers = spawn
            decision.notes.extend(notes)
        else:
            proposals, decommission, notes = drain_when_idle(ctx, estimator, replicated)
            decision.mappings.update(proposals)
            decision.decommission.extend(decommission)
            decision.notes.extend(notes)
        return decision
