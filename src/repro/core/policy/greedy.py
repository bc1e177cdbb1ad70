"""Greedy migration policies: ``least_loaded`` and ``headroom_pace``.

Both keep whatever replication schemes already exist (their channel-level
pass proposes nothing) and fight hotspots purely by migrating SINGLE
channels.  They differ in how a receiver is chosen:

* ``least_loaded`` always packs onto the server with the lowest current
  load ratio -- the textbook greedy baseline.
* ``headroom_pace`` scores receivers by *projected* headroom: how much
  spare capacity a server will still have after its recent load growth
  rate (an EWMA of ``dLR/dt``) has run for ``PACE_WEIGHT`` more
  seconds.  A near-idle server whose load is ramping fast scores worse
  than a busier but flat one, which matters under flash crowds where the
  least-loaded server this tick is everyone's favourite target next tick.

Both reuse the paper's low-load draining for scale-down, so server-hour
accounting stays comparable across policies.
"""

from __future__ import annotations

from typing import Callable, ClassVar, Dict, Optional, Sequence, Set, Tuple

from repro.core.config import DynamothConfig
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.core.policy.base import PolicyContext, RebalancePolicy
from repro.core.rebalance import LoadEstimator, RebalanceDecision, drain_when_idle

LoadFn = Callable[[str], float]
ReceiverFn = Callable[[Sequence[str], Tuple[str, ...]], Optional[str]]


def greedy_relief(
    ctx: PolicyContext,
    estimator: LoadEstimator,
    replicated: Set[str],
    load: LoadFn,
    pick_receiver: ReceiverFn,
) -> RebalanceDecision:
    """Move the busiest channels off hotspots until every server is safe.

    Shares the paper's Algorithm-2 skeleton (hotspot selection, skip set,
    strict-improvement check) but with a pluggable effective-load function
    and receiver chooser, and without the relaxed second pass: receivers
    are never packed past ``lr_safe``.  Spawns one server whenever a
    hotspot cannot be brought under ``lr_high`` by migration.
    """
    cfg = ctx.config
    out = RebalanceDecision()
    active = list(ctx.active_servers)
    exhausted: Set[str] = set()

    for __ in range(len(active) * 4):  # outer-loop safety bound
        candidates = [s for s in active if s not in exhausted]
        if not candidates:
            break
        src = max(candidates, key=load)
        if load(src) < cfg.lr_high:
            break

        skip: Set[str] = set(replicated)
        while load(src) >= cfg.lr_safe:
            channels = estimator.migratable_channels(src, skip)
            if not channels:
                break
            c_max = channels[0]
            dst = pick_receiver(active, (src,))
            if dst is None:
                break
            contribution = estimator.contribution(src, c_max)
            projected = load(dst) + contribution / estimator.nominal(dst)
            if projected >= cfg.lr_safe or projected >= load(src):
                skip.add(c_max)  # does not fit usefully; try next-busiest
                continue
            estimator.migrate(c_max, src, dst)
            out.mappings[c_max] = ChannelMapping(ReplicationMode.SINGLE, (dst,))

        if load(src) >= cfg.lr_high:
            exhausted.add(src)
            out.spawn_servers = 1
        elif load(src) >= cfg.lr_safe:
            exhausted.add(src)
    return out


class _GreedyBase(RebalancePolicy):
    """Shared skeleton: no channel-level proposals, relief then drain."""

    def channel_level(
        self, ctx: PolicyContext, estimator: LoadEstimator
    ) -> Dict[str, ChannelMapping]:
        return {}

    def _load_fn(self, ctx: PolicyContext, estimator: LoadEstimator) -> LoadFn:
        return estimator.load_ratio

    def _receiver_fn(
        self, ctx: PolicyContext, estimator: LoadEstimator, load: LoadFn
    ) -> ReceiverFn:
        def pick(candidates: Sequence[str], exclude: Tuple[str, ...]) -> Optional[str]:
            pool = [s for s in candidates if s not in exclude]
            if not pool:
                return None
            return min(pool, key=load)

        return pick

    def system_level(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        replicated: set[str],
    ) -> RebalanceDecision:
        load = self._load_fn(ctx, estimator)
        decision = greedy_relief(
            ctx,
            estimator,
            replicated,
            load,
            self._receiver_fn(ctx, estimator, load),
        )
        if decision.mappings or decision.spawn_servers:
            return decision
        mappings, decommission = drain_when_idle(ctx, estimator, replicated, load)
        return RebalanceDecision(mappings, decommission=decommission)

    def place_unknown_channel(
        self,
        ctx: PolicyContext,
        estimator: LoadEstimator,
        channel: str,
        candidates: Sequence[str],
    ) -> Optional[str]:
        """The candidate with the lowest effective load (``_load_fn``)."""
        load = self._load_fn(ctx, estimator)
        return self._receiver_fn(ctx, estimator, load)(candidates, ())


class LeastLoadedPolicy(_GreedyBase):
    """Greedy baseline: busiest channel moves to the least-loaded server."""

    name: ClassVar[str] = "least_loaded"


class HeadroomPacePolicy(_GreedyBase):
    """Headroom/pace scoring: prefer receivers with spare *future* capacity.

    Keeps an EWMA of each server's load-ratio growth rate (its *pace*,
    in LR/s) across decide calls.  Effective load is the measured ratio
    plus ``pace * PACE_WEIGHT`` (only positive pace penalises --
    cooling servers are judged by their measured load), so a fast-ramping
    server is treated as already carrying the load it is about to have.
    """

    name: ClassVar[str] = "headroom_pace"

    #: smoothing for the pace EWMA
    PACE_ALPHA: ClassVar[float] = 0.5
    #: look-ahead: seconds of measured load growth added to a server's
    #: effective load when scoring it as a receiver
    PACE_WEIGHT: ClassVar[float] = 3.0

    def __init__(self, config: DynamothConfig) -> None:
        super().__init__(config)
        self._last_lr: Dict[str, float] = {}
        self._pace: Dict[str, float] = {}
        self._last_t: Optional[float] = None

    def _load_fn(self, ctx: PolicyContext, estimator: LoadEstimator) -> LoadFn:
        self._update_pace(ctx, estimator)
        weight = self.PACE_WEIGHT
        pace = self._pace

        def load(server: str) -> float:
            return estimator.load_ratio(server) + max(pace.get(server, 0.0), 0.0) * weight

        return load

    def _update_pace(self, ctx: PolicyContext, estimator: LoadEstimator) -> None:
        now = ctx.now
        if self._last_t is not None and now == self._last_t:
            return  # repair + decide at the same sim time: advance once
        dt = None if self._last_t is None else now - self._last_t
        current = {s: estimator.load_ratio(s) for s in ctx.active_servers}
        for server in ctx.active_servers:
            lr = current[server]
            prev = self._last_lr.get(server)
            if prev is not None and dt is not None and dt > 0:
                rate = (lr - prev) / dt
                old = self._pace.get(server, 0.0)
                self._pace[server] = (
                    self.PACE_ALPHA * rate + (1.0 - self.PACE_ALPHA) * old
                )
        # Forget servers that left the pool; adopt newcomers with zero pace.
        self._last_lr = current
        self._pace = {s: self._pace.get(s, 0.0) for s in ctx.active_servers}
        self._last_t = now
