"""Consistent Hashing with Bounded Loads (CHBL) as a rebalancing policy.

Mirrokni et al. ("Consistent Hashing with Bounded Loads", SODA 2018, see
PAPERS.md): hash every item onto a ring, but cap each server's load at
``(1 + epsilon)`` times its fair share; an item whose ring-home is full
walks clockwise to the first server with spare bounded capacity.  The
bound makes the worst-case server load provably close to average while
keeping the ring's small-movement property (changing the pool only
remaps O(1/N) of the channels).

Translated to Dynamoth:

* *fair share* is capacity-weighted -- server ``i``'s bound is
  ``(1 + eps) * total_egress * nominal_i / sum(nominal)`` bytes/s, so a
  beefier server legitimately holds more channels;
* *placement* (:meth:`place_unknown_channel`) walks the ring from the
  channel's hash and returns the first server whose bounded capacity
  still fits the channel;
* *rebalancing* only touches channels on servers that exceed their
  bound, moving them to their own bounded walk target -- channels on
  within-bound servers never move, which keeps churn low by
  construction;
* *elasticity*: a spawn is requested when even the bound itself implies
  unsafe load (``(1+eps) * avg_LR >= LR^high``: no walk can fix that) or
  when an over-bound channel has no in-bound target; draining reuses the
  paper's low-load pass.

Replicated channels (non-SINGLE mappings) are left to whatever scheme
created them, exactly like the other non-paper policies.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Sequence, Set, Tuple

from repro.core.config import DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.core.policy.base import PolicyContext, RebalancePolicy
from repro.core.rebalance import LoadEstimator, RebalanceDecision, drain_when_idle


class BoundedLoadPolicy(RebalancePolicy):
    """epsilon-bounded consistent-hashing placement and rebalancing."""

    name: ClassVar[str] = "chbl"

    #: epsilon: each server's egress is bounded by ``(1 + EPSILON)`` times
    #: its capacity-weighted fair share (Mirrokni et al.).
    EPSILON: ClassVar[float] = 0.25

    def __init__(self, config: DynamothConfig) -> None:
        super().__init__(config)
        self._ring: Optional[ConsistentHashRing] = None
        self._ring_members: Optional[frozenset[str]] = None

    # ------------------------------------------------------------------
    # Ring maintenance
    # ------------------------------------------------------------------
    def _ring_for(self, active_servers: Sequence[str]) -> ConsistentHashRing:
        """The policy's own ring over the *current* pool.

        Rebuilt (in sorted order, so the ring is identical regardless of
        how the membership change arrived) only when the pool actually
        changes -- consistent hashing's stability guarantee depends on
        the ring surviving across decide calls.
        """
        members = frozenset(active_servers)
        if self._ring is None or members != self._ring_members:
            self._ring = ConsistentHashRing(sorted(members))
            self._ring_members = members
        return self._ring

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _bounds(
        self, estimator: LoadEstimator, active_servers: Sequence[str]
    ) -> Dict[str, float]:
        """Per-server egress bound: (1 + eps) * capacity-weighted share."""
        eps = self.EPSILON
        total = sum(
            estimator.load_ratio(s) * estimator.nominal(s) for s in active_servers
        )
        capacity = sum(estimator.nominal(s) for s in active_servers)
        if capacity <= 0:
            return {s: 0.0 for s in active_servers}
        return {
            s: (1.0 + eps) * total * estimator.nominal(s) / capacity
            for s in active_servers
        }

    def _bounded_walk(
        self,
        ring: ConsistentHashRing,
        estimator: LoadEstimator,
        bounds: Dict[str, float],
        channel: str,
        amount: float,
        exclude: Tuple[str, ...] = (),
    ) -> Optional[str]:
        """First server clockwise of ``channel`` that fits ``amount``."""
        for server in ring.lookup_n(channel, len(ring)):
            if server in exclude:
                continue
            egress = estimator.load_ratio(server) * estimator.nominal(server)
            if egress + amount <= bounds.get(server, 0.0):
                return server
        return None

    # ------------------------------------------------------------------
    # Seam hooks
    # ------------------------------------------------------------------
    def channel_level(
        self, ctx: PolicyContext, estimator: LoadEstimator
    ) -> Dict[str, ChannelMapping]:
        return {}

    def system_level(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        replicated: set[str],
    ) -> RebalanceDecision:
        out = RebalanceDecision()
        cfg = self.config
        active = list(ctx.active_servers)
        if not active:
            return out
        ring = self._ring_for(active)
        bounds = self._bounds(estimator, active)

        # Even a perfectly bounded assignment would be unsafe: the bound
        # itself sits above LR^high on some server.  Rent capacity first;
        # shuffling channels cannot help.
        over_high = any(
            bounds[s] >= cfg.lr_high * estimator.nominal(s) for s in active
        )
        if over_high and len(active) > 0:
            avg_lr = sum(estimator.load_ratio(s) for s in active) / len(active)
            if avg_lr * (1.0 + self.EPSILON) >= cfg.lr_high:
                out.spawn_servers = 1

        # Relocate channels off over-bound servers, busiest first.
        overloaded = [
            s
            for s in active
            if estimator.load_ratio(s) * estimator.nominal(s) > bounds[s]
        ]
        overloaded.sort(
            key=lambda s: estimator.load_ratio(s) * estimator.nominal(s) - bounds[s],
            reverse=True,
        )
        unplaceable = False
        for server in overloaded:
            skip: Set[str] = set(replicated)
            while (
                estimator.load_ratio(server) * estimator.nominal(server)
                > bounds[server]
            ):
                channels = estimator.migratable_channels(server, skip)
                if not channels:
                    break
                channel = channels[0]
                amount = estimator.contribution(server, channel)
                target = self._bounded_walk(
                    ring, estimator, bounds, channel, amount, exclude=(server,)
                )
                if target is None:
                    unplaceable = True
                    skip.add(channel)
                    continue
                estimator.migrate(channel, server, target)
                out.mappings[channel] = ChannelMapping(
                    ReplicationMode.SINGLE, (target,)
                )
                skip.add(channel)
        if unplaceable and not out.spawn_servers:
            out.spawn_servers = 1

        if out.mappings or out.spawn_servers:
            return out
        mappings, decommission = drain_when_idle(ctx, estimator, replicated)
        return RebalanceDecision(mappings, decommission=decommission)

    def place_unknown_channel(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        channel: str,
        candidates: Sequence[str],
    ) -> Optional[str]:
        pool = list(candidates)
        if not pool:
            return None
        ring = self._ring_for(pool)
        bounds = self._bounds(estimator, pool)
        amount = estimator.channel_total(channel, estimator.servers())
        target = self._bounded_walk(ring, estimator, bounds, channel, amount)
        if target is not None:
            return target
        # Every server is over bound (e.g. the channel's own demand dwarfs
        # the bound) -- fall back to the least-loaded candidate.
        return estimator.least_loaded(pool)
