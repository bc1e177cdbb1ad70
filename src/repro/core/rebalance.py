"""The hierarchical rebalancer: Algorithms 1 & 2 plus low-load draining.

All functions here are *pure* with respect to the simulation: they consume
the current :class:`~repro.core.plan.Plan`, the aggregated
:class:`~repro.core.metrics.ClusterLoadView` and a
:class:`~repro.core.config.DynamothConfig`, and propose mapping changes,
servers to rent and servers to drain.  The
:class:`~repro.core.balancer.LoadBalancer` actor turns the resulting
:class:`RebalanceDecision` into plan pushes and cloud API calls.

Plan generation is a two-step process (section III-B): (1) channel-level
rebalancing decides replication schemes per channel (Algorithm 1); (2)
system-level rebalancing migrates channels between servers (Algorithm 2
for high load, a symmetric draining pass for low load).  The two steps
are composed in one place, :meth:`repro.core.policy.base.RebalancePolicy.decide`;
the ``paper`` policy (:mod:`repro.core.policy.paper`) plugs these
functions into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import DynamothConfig
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan, ReplicationMode

if TYPE_CHECKING:
    from repro.core.policy.base import PolicyContext

#: ``AllPubs_threshold`` of Algorithm 1: the subscribers-per-publication
#: ratio beyond which the *all-publishers* scheme activates.
ALL_PUBS_THRESHOLD = 25.0
#: Upper bound on ``N_servers``, the replicas of one channel.
MAX_REPLICATION_SERVERS = 8


@dataclass
class RebalanceDecision:
    """Outcome of one plan-generation pass."""

    #: proposed channel assignments (version stamps are assigned by
    #: ``Plan.evolve`` when the decision is applied)
    mappings: Dict[str, ChannelMapping] = field(default_factory=dict)
    #: how many additional servers should be rented from the cloud
    spawn_servers: int = 0
    #: servers that are fully drained and can be decommissioned
    decommission: List[str] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return not (self.mappings or self.spawn_servers or self.decommission)


class LoadEstimator:
    """Predicts per-server load ratios under hypothetical plans.

    Seeded from the measured egress of each server; migrations and
    replication changes shift the per-channel egress contributions around,
    and :meth:`load_ratio` answers "what would ``LR_i`` be if this plan
    were applied" -- the ``estimateLR`` step of Algorithm 2.
    """

    def __init__(
        self,
        view: ClusterLoadView,
        servers: Sequence[str],
        default_nominal_bps: float,
        *,
        cpu_aware: bool = False,
    ) -> None:
        self.cpu_aware = cpu_aware
        self._egress: Dict[str, float] = {}
        self._nominal: Dict[str, float] = {}
        #: per-server, per-channel egress contribution (bytes/s)
        self._contrib: Dict[str, Dict[str, float]] = {}
        #: per-server CPU utilization and per-channel CPU contribution
        #: (fractions of one core), tracked only under the CPU-aware
        #: extension (the paper's future work)
        self._cpu: Dict[str, float] = {}
        self._cpu_contrib: Dict[str, Dict[str, float]] = {}
        for server in servers:
            nominal = view.nominal_egress_bps(server)
            self._nominal[server] = nominal if nominal > 0 else default_nominal_bps
            self._egress[server] = view.load_ratio(server) * self._nominal[server]
            loads = view.channel_loads(server)
            self._contrib[server] = {
                channel: load.bytes_out_per_s for channel, load in loads.items()
            }
            cpu = view.cpu_utilization(server)
            self._cpu[server] = cpu
            total_msgs = sum(load.messages_out_per_s for load in loads.values())
            if cpu > 0 and total_msgs > 0:
                # Attribute CPU to channels proportionally to their
                # delivery counts (deliveries dominate publish costs).
                self._cpu_contrib[server] = {
                    channel: cpu * load.messages_out_per_s / total_msgs
                    for channel, load in loads.items()
                }
            else:
                self._cpu_contrib[server] = {}

    # ------------------------------------------------------------------
    def servers(self) -> List[str]:
        return list(self._egress)

    def load_ratio(self, server_id: str) -> float:
        egress_ratio = self._egress[server_id] / self._nominal[server_id]
        if not self.cpu_aware:
            return egress_ratio
        # CPU-aware extension: a server is as loaded as its most
        # constrained resource.
        return max(egress_ratio, self._cpu.get(server_id, 0.0))

    def nominal(self, server_id: str) -> float:
        return self._nominal[server_id]

    def contribution(self, server_id: str, channel: str) -> float:
        return self._contrib.get(server_id, {}).get(channel, 0.0)

    def channel_total(self, channel: str, servers: Iterable[str]) -> float:
        return sum(self.contribution(s, channel) for s in servers)

    def busiest(self, servers: Iterable[str]) -> Tuple[str, float]:
        best = max(servers, key=self.load_ratio)
        return best, self.load_ratio(best)

    def least_loaded(
        self, servers: Iterable[str], exclude: Iterable[str] = ()
    ) -> Optional[str]:
        excluded = set(exclude)
        candidates = [s for s in servers if s not in excluded]
        if not candidates:
            return None
        return min(candidates, key=self.load_ratio)

    def migratable_channels(self, server_id: str, exclude: Set[str]) -> List[str]:
        """Channels on ``server_id`` by descending egress contribution."""
        contrib = self._contrib.get(server_id, {})
        channels = [c for c in contrib if c not in exclude and contrib[c] > 0]
        channels.sort(key=contrib.__getitem__, reverse=True)
        return channels

    # ------------------------------------------------------------------
    # Hypothetical mutations
    # ------------------------------------------------------------------
    def migrate(self, channel: str, src: str, dst: str) -> float:
        """Move ``channel``'s contribution ``src`` -> ``dst``; returns it."""
        amount = self._contrib.get(src, {}).pop(channel, 0.0)
        if src in self._egress:
            self._egress[src] -= amount
        self._egress[dst] += amount
        dst_contrib = self._contrib.setdefault(dst, {})
        dst_contrib[channel] = dst_contrib.get(channel, 0.0) + amount
        cpu_amount = self._cpu_contrib.get(src, {}).pop(channel, 0.0)
        if cpu_amount:
            self._cpu[src] = self._cpu.get(src, 0.0) - cpu_amount
            self._cpu[dst] = self._cpu.get(dst, 0.0) + cpu_amount
            dst_cpu = self._cpu_contrib.setdefault(dst, {})
            dst_cpu[channel] = dst_cpu.get(channel, 0.0) + cpu_amount
        return amount

    def set_replicas(
        self, channel: str, old_servers: Iterable[str], new_servers: Sequence[str]
    ) -> None:
        """Re-spread a channel's total egress evenly over ``new_servers``.

        Both replication schemes split a channel's egress roughly evenly:
        under all-subscribers each replica carries 1/N of the publications
        to all subscribers, under all-publishers each replica carries all
        publications to 1/N of the subscribers.
        """
        total = 0.0
        cpu_total = 0.0
        for server in old_servers:
            amount = self._contrib.get(server, {}).pop(channel, 0.0)
            self._egress[server] -= amount
            total += amount
            cpu_amount = self._cpu_contrib.get(server, {}).pop(channel, 0.0)
            self._cpu[server] = self._cpu.get(server, 0.0) - cpu_amount
            cpu_total += cpu_amount
        if not new_servers:
            return
        share = total / len(new_servers)
        cpu_share = cpu_total / len(new_servers)
        for server in new_servers:
            self._egress[server] += share
            self._contrib.setdefault(server, {})[channel] = share
            self._cpu[server] = self._cpu.get(server, 0.0) + cpu_share
            if cpu_share:
                self._cpu_contrib.setdefault(server, {})[channel] = cpu_share


# ----------------------------------------------------------------------
# Step 1: channel-level rebalancing (Algorithm 1)
# ----------------------------------------------------------------------
def channel_level_rebalance(
    plan: Plan,
    view: ClusterLoadView,
    config: DynamothConfig,
    active_servers: Sequence[str],
    estimator: LoadEstimator,
) -> Dict[str, ChannelMapping]:
    """Decide per-channel replication (Algorithm 1).

    Returns proposed mappings, only for channels whose scheme or replica
    count should change.  The estimator is updated in place so the
    subsequent system-level pass sees the post-replication load
    distribution.
    """
    proposals: Dict[str, ChannelMapping] = {}

    seen: Set[str] = set()
    for server in active_servers:
        seen.update(view.channel_loads(server))

    for channel in sorted(seen):
        current = plan.mapping(channel)
        totals = view.channel_totals(channel, current)
        if totals is None:
            continue
        pubs = totals.publications_per_s
        subs = totals.subscriber_count
        p_ratio = pubs / max(subs, 1)
        s_ratio = subs / max(pubs, 1.0)

        mode: ReplicationMode
        n_servers: int
        if p_ratio > config.all_subs_threshold and pubs > config.publication_threshold:
            mode = ReplicationMode.ALL_SUBSCRIBERS
            n_servers = math.ceil(p_ratio / config.all_subs_threshold)
        elif s_ratio > ALL_PUBS_THRESHOLD and subs > config.subscriber_threshold:
            mode = ReplicationMode.ALL_PUBLISHERS
            n_servers = math.ceil(s_ratio / ALL_PUBS_THRESHOLD)
        elif (
            pubs > config.publication_threshold
            and subs > config.subscriber_threshold
            and _exceeds_single_server(channel, current, estimator, config)
        ):
            # Corner case: publications *and* subscribers both very large.
            # All-subscribers wins because all-publishers would send every
            # publication to every server (section III-B.1).
            mode = ReplicationMode.ALL_SUBSCRIBERS
            total = estimator.channel_total(channel, active_servers)
            per_server = config.lr_safe * min(
                estimator.nominal(s) for s in active_servers
            )
            n_servers = math.ceil(total / max(per_server, 1.0))
        else:
            mode = ReplicationMode.SINGLE
            n_servers = 1

        n_servers = max(1, min(n_servers, MAX_REPLICATION_SERVERS, len(active_servers)))
        if mode is not ReplicationMode.SINGLE:
            n_servers = max(n_servers, 2)

        if mode is current.mode and n_servers == len(current.servers):
            continue  # nothing to change

        new_servers = _select_replica_servers(
            current, mode, n_servers, active_servers, estimator
        )
        if mode is ReplicationMode.SINGLE and new_servers == list(current.servers):
            continue
        proposal = ChannelMapping(mode, tuple(new_servers))
        proposals[channel] = proposal
        estimator.set_replicas(channel, current.servers, new_servers)
    return proposals


def _exceeds_single_server(
    channel: str, mapping: ChannelMapping, estimator: LoadEstimator, config: DynamothConfig
) -> bool:
    # Sum over every server the channel is observed on: during transition
    # windows the traffic may not yet sit on the mapping's servers.
    total = estimator.channel_total(channel, estimator.servers())
    capacity = max(estimator.nominal(s) for s in mapping.servers)
    return total > config.lr_high * capacity


def _select_replica_servers(
    current: ChannelMapping,
    mode: ReplicationMode,
    n_servers: int,
    active_servers: Sequence[str],
    estimator: LoadEstimator,
) -> List[str]:
    """Grow onto the least-loaded servers; shrink off the busiest first."""
    if mode is ReplicationMode.SINGLE:
        # Collapse onto the least-loaded current replica to keep locality.
        keep = min(current.servers, key=estimator.load_ratio)
        return [keep]

    chosen = list(current.servers)
    if len(chosen) > n_servers:
        # Free the busiest replicas first (section III-B.1).
        chosen.sort(key=estimator.load_ratio)
        chosen = chosen[:n_servers]
    while len(chosen) < n_servers:
        candidate = estimator.least_loaded(active_servers, exclude=chosen)
        if candidate is None:
            break
        chosen.append(candidate)
    return chosen


# ----------------------------------------------------------------------
# Step 2a: system-level high-load rebalancing (Algorithm 2)
# ----------------------------------------------------------------------
def high_load_rebalance(
    config: DynamothConfig,
    active_servers: Sequence[str],
    estimator: LoadEstimator,
    replicated: Set[str],
) -> Tuple[Dict[str, ChannelMapping], int]:
    """Algorithm 2: migrate busiest channels off overloaded servers.

    ``replicated`` channels are skipped -- their load is managed by the
    channel-level pass.  Returns (mapping proposals, servers to spawn).
    """
    proposals: Dict[str, ChannelMapping] = {}
    spawn = 0
    exhausted: Set[str] = set()  # servers we could not fix by migration

    for __ in range(len(active_servers) * 4):  # outer-loop safety bound
        candidates = [s for s in active_servers if s not in exhausted]
        if not candidates:
            break
        h_max, lr_max = estimator.busiest(candidates)
        if lr_max < config.lr_high:
            break

        moved_any = False
        skip: Set[str] = set(replicated)
        # Receivers are normally packed only up to LR^safe, preserving
        # headroom.  If that leaves the hotspot above LR^high and nothing
        # moved, a second *relaxed* pass allows placements up to just
        # below LR^high -- "make sure that we do not overload that
        # server" -- provided the move strictly improves on the hotspot.
        # Without the relaxed pass a single pair of oversized channels can
        # wedge the cluster (no placement fits under LR^safe although an
        # obviously better configuration exists).
        relaxed = False
        while estimator.load_ratio(h_max) >= config.lr_safe:
            channels = estimator.migratable_channels(h_max, skip)
            if not channels:
                if not relaxed and estimator.load_ratio(h_max) >= config.lr_high:
                    relaxed = True
                    skip = set(replicated)
                    continue
                break
            c_max = channels[0]
            h_min = estimator.least_loaded(active_servers, exclude=(h_max,))
            if h_min is None:
                break
            contribution = estimator.contribution(h_max, c_max)
            projected = (
                estimator.load_ratio(h_min)
                + contribution / estimator.nominal(h_min)
            )
            ceiling = config.lr_high if relaxed else config.lr_safe
            if projected >= ceiling or (
                relaxed and projected >= estimator.load_ratio(h_max)
            ):
                # this channel cannot be placed usefully; try the
                # next-busiest one
                skip.add(c_max)
                continue
            estimator.migrate(c_max, h_max, h_min)
            proposals[c_max] = ChannelMapping(ReplicationMode.SINGLE, (h_min,))
            skip.add(c_max)
            moved_any = True

        if estimator.load_ratio(h_max) >= config.lr_high and not moved_any:
            # Migration cannot relieve this server; rent capacity.
            exhausted.add(h_max)
            spawn = 1
        elif estimator.load_ratio(h_max) >= config.lr_safe:
            # Partial relief only -- also worth renting a server.
            exhausted.add(h_max)
            if estimator.load_ratio(h_max) >= config.lr_high:
                spawn = 1
        # else: fixed; loop continues with next-busiest server

    return proposals, spawn


# ----------------------------------------------------------------------
# Step 2b: system-level low-load rebalancing
# ----------------------------------------------------------------------
def low_load_rebalance(
    plan: Plan,
    view: ClusterLoadView,
    config: DynamothConfig,
    active_servers: Sequence[str],
    bootstrap_servers: Set[str],
    estimator: LoadEstimator,
    replicated: Set[str],
) -> Tuple[Dict[str, ChannelMapping], List[str]]:
    """Drain the least-loaded removable server when the cluster is idle.

    Channels are migrated to other servers as long as the receivers stay
    below ``lr_low_target``; a server whose channels are all gone is
    decommissioned.  Bootstrap servers (the consistent-hashing fallback
    ring) are never removed.  Mirrors section III-B.4.
    """
    proposals: Dict[str, ChannelMapping] = {}
    decommission: List[str] = []

    removable = [s for s in active_servers if s not in bootstrap_servers]
    if not removable or len(active_servers) <= config.min_servers:
        return proposals, decommission
    if estimator.busiest(active_servers)[1] >= config.lr_low_target:
        return proposals, decommission

    # Pick the least-loaded removable server that no replicated channel
    # depends on (replica shrinking is the channel-level pass's job).
    candidates = sorted(removable, key=estimator.load_ratio)
    victim: Optional[str] = None
    for server in candidates:
        blocking = [
            c
            for c in plan.channels_on(server)
            if plan.mapping(c).mode is not ReplicationMode.SINGLE
        ]
        if not blocking:
            victim = server
            break
    if victim is None:
        return proposals, decommission

    remaining = [s for s in active_servers if s != victim]
    # Channels living on the victim: explicit mappings plus anything the
    # LLA observed there (CH-fallback channels resolve to bootstrap
    # servers, so they never land on a removable server implicitly).
    channels = set(plan.channels_on(victim)) | set(view.channel_loads(victim))
    channels -= replicated
    moved_all = True
    for channel in sorted(channels, key=lambda c: estimator.contribution(victim, c)):
        target = estimator.least_loaded(remaining)
        if target is None:
            moved_all = False
            break
        contribution = estimator.contribution(victim, channel)
        projected = estimator.load_ratio(target) + contribution / estimator.nominal(target)
        if projected > config.lr_low_target:
            moved_all = False
            break
        estimator.migrate(channel, victim, target)
        proposals[channel] = ChannelMapping(ReplicationMode.SINGLE, (target,))

    if moved_all:
        decommission.append(victim)
    return proposals, decommission


def drain_when_idle(
    ctx: PolicyContext,
    estimator: LoadEstimator,
    replicated: Set[str],
    load: Optional[Callable[[str], float]] = None,
) -> Tuple[Dict[str, ChannelMapping], List[str]]:
    """The low-load drain, gated on mean effective load < LR^low."""
    effective = load if load is not None else estimator.load_ratio
    values = [effective(s) for s in ctx.active_servers]
    if not values or not ctx.allow_scale_down:
        return {}, []
    if sum(values) / len(values) >= ctx.config.lr_low:
        return {}, []
    return low_load_rebalance(
        ctx.plan,
        ctx.view,
        ctx.config,
        ctx.active_servers,
        set(ctx.bootstrap_servers),
        estimator,
        replicated,
    )

