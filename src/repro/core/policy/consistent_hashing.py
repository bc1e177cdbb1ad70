"""Plain consistent hashing: the paper's comparator (Experiment 2).

"The standard load balancing technique" Dynamoth is measured against
(section V-D): channels live where a consistent-hashing ring over the
*currently rented* servers puts them.  When any server overloads, the only
remedy is to rent one more server and let the ring shed ~1/N of every
server's channels onto it -- irrespective of the actual load of each
channel or server.  Hence "highly loaded servers do not loose significant
load and tend to overload again soon", and "this technique has to spawn a
new server every time a rebalancing occurs, which is not cost efficient".

No replication, no load-aware migration, no scale-down.  Everything else
(T_wait, spawning, plan pushes, failure repair) is the balancer's, so the
comparison isolates the placement rule, as in the paper where both
systems run on the same middleware.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Sequence

from repro.core.hashing import ConsistentHashRing
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.core.policy.base import PolicyContext, RebalancePolicy
from repro.core.rebalance import LoadEstimator, RebalanceDecision


class ConsistentHashingPolicy(RebalancePolicy):
    """Re-hash when the pool changes; rent a server when one overloads."""

    name: ClassVar[str] = "consistent_hashing"

    #: ring over the pool the channels were last placed on; until the
    #: first decision that is the bootstrap ring every node falls back to
    ring: Optional[ConsistentHashRing] = None

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
        active = ctx.active_servers
        if not active:
            return out
        ring = self.ring if self.ring is not None else ctx.plan.ring
        if set(ring.servers) != set(active):
            ring = ConsistentHashRing(sorted(active))
            channels = set(ctx.plan.explicit_channels())
            for server_id in active:
                channels.update(ctx.view.channel_loads(server_id))
            for channel in sorted(channels):
                out.mappings[channel] = ChannelMapping(
                    ReplicationMode.SINGLE, (ring.lookup(channel),)
                )
        elif any(estimator.load_ratio(s) >= self.config.lr_high for s in active):
            # The only lever consistent hashing has: rent another server.
            out.spawn_servers = 1
        self.ring = ring
        return out

    def place_unknown_channel(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        channel: str,
        candidates: Sequence[str],
    ) -> Optional[str]:
        """The next candidate clockwise of the channel on the ring.

        On the bootstrap ring that is exactly where a client's
        exclusion-aware fallback lookup already sends the channel.
        """
        ring = self.ring if self.ring is not None else ctx.plan.ring
        gone = [s for s in ring.servers if s not in candidates]
        target = ring.lookup(channel, exclude=gone)
        return target if target in candidates else None
