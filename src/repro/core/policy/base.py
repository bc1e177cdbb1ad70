"""The rebalancing-policy seam: what the balancer asks, not how it is answered.

The paper's hierarchical rebalancer (Algorithms 1 & 2) is one point in a
large design space.  :class:`RebalancePolicy` pins down the three questions
every balancer implementation must answer --

* *channel-level*: which channels should change replication scheme,
* *system-level*: which channels should migrate between servers, and
  whether to rent or drain servers,
* *unknown-channel placement*: where a channel with no usable home (its
  server died, or it was never planned) should live --

so that competing answers (:mod:`repro.core.policy.paper`,
:mod:`~repro.core.policy.greedy`, :mod:`~repro.core.policy.ewma`,
:mod:`~repro.core.policy.chbl`,
:mod:`~repro.core.policy.consistent_hashing`) are interchangeable behind
one seam.  The
:class:`~repro.core.balancer.LoadBalancer` holds exactly one policy, calls
only through this interface, and is the interface's only caller: the lab
(:mod:`repro.lab`) compares policies by running the balancer on each.

Policies are *pure* with respect to the simulation: they read a
:class:`PolicyContext` and return a
:class:`~repro.core.rebalance.RebalanceDecision` -- mappings, a spawn
count and decommissions, exactly what the balancer acts on.  A policy may
keep internal prediction state across calls (EWMA trackers, hash rings),
but it must never touch an RNG, the wall clock, or anything outside the
context -- determinism of the balancer depends on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.config import DynamothConfig
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.rebalance import LoadEstimator, RebalanceDecision


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may look at when deciding.

    ``view`` is the balancer's aggregated sliding-window load picture.
    ``allow_scale_down`` mirrors the balancer's rule that no server is
    drained while a spawn is still booting.
    """

    now: float
    plan: Plan
    view: ClusterLoadView
    config: DynamothConfig
    active_servers: Tuple[str, ...]
    bootstrap_servers: FrozenSet[str]
    default_nominal_bps: float
    allow_scale_down: bool = True

    def make_estimator(
        self, servers: Optional[Sequence[str]] = None
    ) -> LoadEstimator:
        """A fresh load estimator seeded from the context's view."""
        return LoadEstimator(
            self.view,
            self.active_servers if servers is None else servers,
            self.default_nominal_bps,
            cpu_aware=self.config.cpu_aware_balancing,
        )


def replicated_channels(
    plan: Plan, channel_proposals: Dict[str, ChannelMapping]
) -> set[str]:
    """Channels whose load is managed by channel-level replication.

    System-level passes must skip these: moving a replica around would
    fight the channel-level scheme.
    """
    replicated = {
        c
        for c, m in channel_proposals.items()
        if m.mode is not ReplicationMode.SINGLE
    }
    for channel in plan.explicit_channels():
        if channel in channel_proposals:
            continue
        if plan.mapping(channel).mode is not ReplicationMode.SINGLE:
            replicated.add(channel)
    return replicated


def repair_mappings(
    ctx: PolicyContext,
    policy: "RebalancePolicy",
    dead_id: str,
    live: Sequence[str],
) -> Dict[str, ChannelMapping]:
    """Re-home every channel ``dead_id`` carried onto the ``live`` servers.

    The balancer's plan-repair rule.  Covers explicitly mapped channels
    and consistent-hashing fallback channels the view observed traffic
    for.  ``ctx`` must list the dead server among its ``active_servers``:
    its last load reports carry the per-channel egress weights that decide
    where each re-homed channel lands; without them every repaired channel
    would look weightless and pile onto one "least loaded" target.
    """
    plan = ctx.plan
    estimator = ctx.make_estimator()
    mappings: Dict[str, ChannelMapping] = {}
    for channel in sorted(
        set(plan.channels_on(dead_id)) | set(ctx.view.channel_loads(dead_id))
    ):
        current = plan.mapping(channel)
        if dead_id not in current.servers:
            continue  # observed on the dead server but homed elsewhere
        survivors = tuple(s for s in current.servers if s != dead_id and s in live)
        if not survivors:
            # Where an orphaned channel lands is a *policy* question.
            target = policy.place_unknown_channel(ctx, estimator, channel, live)
            if target is None:
                target = estimator.least_loaded(live)
            if target is None:
                continue  # unreachable: callers repair only onto a live pool
            estimator.migrate(channel, dead_id, target)
            mappings[channel] = ChannelMapping(ReplicationMode.SINGLE, (target,))
        elif len(survivors) == 1:
            # A replicated channel down to one replica collapses to
            # SINGLE; the next regular rebalance re-replicates it if the
            # thresholds still hold.
            mappings[channel] = ChannelMapping(ReplicationMode.SINGLE, survivors)
        else:
            mappings[channel] = ChannelMapping(current.mode, survivors)
    return mappings


class RebalancePolicy(ABC):
    """One rebalancing strategy behind the policy seam.

    Subclasses implement the two planning hooks and (optionally) override
    unknown-channel placement; :meth:`decide` composes them in the
    two-step structure of the paper's plan generation (section III-B), the
    one place that composition is written, so every policy runs the same
    control flow.
    """

    #: Policy table key (``DynamothConfig.rebalance_policy`` value).
    name: ClassVar[str] = ""
    #: Whether channel-level replication follows Algorithm 1's thresholds.
    #: The ``repro.check`` replication-soundness oracle only asserts the
    #: threshold rules against policies that claim them.
    algorithm1_replication: ClassVar[bool] = False

    def __init__(self, config: DynamothConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # The three seam hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def channel_level(
        self, ctx: PolicyContext, estimator: LoadEstimator
    ) -> Dict[str, ChannelMapping]:
        """Per-channel replication decisions (Algorithm 1's slot).

        Returns proposed mappings, and must update the estimator in place
        so the system-level pass sees the post-replication load
        distribution.
        """

    @abstractmethod
    def system_level(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        replicated: set[str],
    ) -> RebalanceDecision:
        """Server-to-server migration and elasticity (Algorithm 2's slot)."""

    def place_unknown_channel(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        channel: str,
        candidates: Sequence[str],
    ) -> Optional[str]:
        """Pick a home for a channel with no usable current server.

        Called by :func:`repair_mappings` when a channel's only server
        died.  The default is the least-loaded candidate; CHBL overrides
        it with a bounded-load ring walk, the consistent-hashing
        comparator with a plain one.  ``None`` defers to the default.
        """
        return estimator.least_loaded(candidates)

    # ------------------------------------------------------------------
    # Composition (shared by every policy)
    # ------------------------------------------------------------------
    def decide(self, ctx: PolicyContext) -> RebalanceDecision:
        """Run channel-level then system-level planning (section III-B)."""
        estimator = ctx.make_estimator()
        channel_proposals = self.channel_level(ctx, estimator)
        replicated = replicated_channels(ctx.plan, channel_proposals)
        decision = self.system_level(ctx, estimator, replicated)
        # channel-level proposals first; a system-level move of the same
        # channel overrides it
        decision.mappings = {**channel_proposals, **decision.mappings}
        return decision

