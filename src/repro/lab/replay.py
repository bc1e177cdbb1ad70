"""Offline policy replay: re-run a recorded load history, no network.

:class:`PolicyReplayer` drives the balancer's decision loop -- the same
gating (``T_wait``, pool-changed, all-bootstrap-reported), the same
spawn/decommission mechanics, the same policy seam -- over the ticks of a
recorded :class:`~repro.lab.history.LoadHistory`, against any registered
:class:`~repro.core.policy.RebalancePolicy`.  Nothing is re-simulated:
one replay tick is one dictionary of floats, so sweeping five policies
over a minute of history takes milliseconds.

Two fidelity modes:

* ``verbatim`` -- every tick's view is rebuilt from the recorded
  window-averaged server state, bit-exactly.  The replayed policy sees
  *exactly* what the live balancer saw, so replaying the recorded
  ``paper`` policy must reproduce the live plan sequence digest-for-
  digest (the seam-equivalence gate).  Load does NOT react to the
  replayed policy's decisions -- use it to verify, not to compare.
* ``modeled`` -- each tick's recorded *logical* per-channel demand is
  re-assigned to servers according to the replayed policy's own current
  plan (split per replication-mode semantics), so different placements
  genuinely produce different server loads, queues and SLA outcomes.
  This is the comparison mode.

SLA accounting reuses the PR 6 sliding-window monitor
(:class:`~repro.obs.sla.SlaMonitor`) fed by a deterministic latency
proxy: base latency plus an M/M/1-flavoured knee penalty once a server
runs hot, plus an accumulated backlog drain term while ``LR > 1`` (an
overloaded server's queue grows by ``(LR - 1) * dt`` seconds of work per
tick and drains at the same rate when capacity returns).  The proxy is
documented in DESIGN.md; its point is *ranking* policies under identical
demand, not absolute latency prediction.

Everything here is pure arithmetic over the history -- no RNG, no wall
clock, no simulator -- so the same history and policy always produce the
identical report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core.config import DynamothConfig
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import Plan, ReplicationMode
from repro.core.policy import (
    PolicyContext,
    RebalancePolicy,
    make_policy,
    repair_mappings,
)
from repro.lab.history import LoadHistory, TickRecord, plan_digest
from repro.obs.sla import OVERALL_SCOPE, SlaConfig, SlaMonitor
from repro.obs.trace import NULL_TRACER

#: Latency proxy constants (see DESIGN.md section 6h).
BASE_LATENCY_S = 0.02
KNEE_LR = 0.8
KNEE_GAIN_S = 0.5

#: Default SLA threshold when the recorded config has none.
DEFAULT_SLA_THRESHOLD_S = 0.25

VERBATIM = "verbatim"
MODELED = "modeled"


@dataclass
class ReplayMetrics:
    """Per-policy outcome of one replay (the comparison row)."""

    policy: str
    mode: str
    ticks: int = 0
    decisions: int = 0
    plan_pushes: int = 0
    #: channel assignment changes across all adopted plans (plan churn)
    migrations: int = 0
    repairs: int = 0
    spawns: int = 0
    decommissions: int = 0
    #: total rented server time over the replayed span
    server_seconds: float = 0.0
    peak_load_ratio: float = 0.0
    mean_load_ratio: float = 0.0
    final_plan_version: int = 0
    final_server_count: int = 0
    sla_violations: int = 0
    sla_violation_seconds: float = 0.0
    #: full ``SlaMonitor.report()`` payload
    sla: Dict[str, Any] = field(default_factory=dict)

    @property
    def server_hours(self) -> float:
        return self.server_seconds / 3600.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "mode": self.mode,
            "ticks": self.ticks,
            "decisions": self.decisions,
            "plan_pushes": self.plan_pushes,
            "migrations": self.migrations,
            "repairs": self.repairs,
            "spawns": self.spawns,
            "decommissions": self.decommissions,
            "server_seconds": self.server_seconds,
            "server_hours": self.server_hours,
            "peak_load_ratio": self.peak_load_ratio,
            "mean_load_ratio": self.mean_load_ratio,
            "final_plan_version": self.final_plan_version,
            "final_server_count": self.final_server_count,
            "sla_violations": self.sla_violations,
            "sla_violation_seconds": self.sla_violation_seconds,
            "sla": self.sla,
        }


@dataclass
class ReplayResult:
    """Metrics plus the adopted plan sequence (for the equivalence gate)."""

    metrics: ReplayMetrics
    #: (t, version, digest) of every adopted plan, initial plan included
    plan_seq: List[Tuple[float, int, str]] = field(default_factory=list)
    #: mismatches against the recorded plan sequence (verify runs only)
    divergences: List[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.divergences


class PolicyReplayer:
    """Re-runs one recorded history against one policy."""

    def __init__(
        self,
        history: LoadHistory,
        policy_name: str,
        *,
        mode: str = MODELED,
        sla_threshold_s: Optional[float] = None,
        config_overrides: Optional[Dict[str, Any]] = None,
    ) -> None:
        if mode not in (VERBATIM, MODELED):
            raise ValueError(f"unknown replay mode: {mode!r}")
        if not history.ticks:
            raise ValueError("cannot replay an empty history")
        self.history = history
        self.mode = mode
        overrides: Dict[str, Any] = {"rebalance_policy": policy_name}
        overrides.update(config_overrides or {})
        self.config: DynamothConfig = history.dynamoth_config(**overrides)
        self.policy: RebalancePolicy = make_policy(self.config)
        threshold = sla_threshold_s
        if threshold is None:
            threshold = self.config.sla_threshold_s
        if threshold is None:
            threshold = DEFAULT_SLA_THRESHOLD_S
        self.sla_threshold_s = threshold

    # ------------------------------------------------------------------
    def run(self, *, verify: bool = False) -> ReplayResult:
        history = self.history
        cfg = self.config
        t0 = history.ticks[0].t
        t_end = history.ticks[-1].t

        plan = history.initial_plan()
        active: List[str] = list(plan.active_servers)
        bootstrap: Set[str] = set(plan.active_servers)
        started: Dict[str, float] = {s: t0 for s in active}
        ended: Dict[str, float] = {}

        # Recorded pool events, time-ordered queues.
        ready_ids: Deque[str] = deque(
            e.detail for e in history.events if e.event == "server-ready" and e.detail
        )
        failures: Deque[Tuple[float, str]] = deque(
            (e.t, e.detail) for e in history.events if e.event == "server-failed"
        )
        resurrections: Deque[Tuple[float, str]] = deque(
            (e.t, e.detail) for e in history.events if e.event == "server-resurrected"
        )

        metrics = ReplayMetrics(policy=self.policy.name, mode=self.mode)
        plan_seq: List[Tuple[float, int, str]] = [
            (history.plans[0].t if history.plans else t0, plan.version, plan_digest(plan))
        ]
        monitor = SlaMonitor(
            NULL_TRACER,
            SlaConfig(
                threshold_s=self.sla_threshold_s,
                quantile=cfg.sla_quantile,
                window_s=cfg.sla_window_s,
                slices=cfg.sla_window_slices,
                per_channel=False,
                emit_window_stats=False,
            ),
        )

        pending_spawns: List[Tuple[float, str]] = []  # (ready_t, server_id)
        spawn_counter = 0
        pool_changed = False
        last_plan_t = -float("inf")
        backlog: Dict[str, float] = {}
        dead_pending: List[str] = []
        lr_sum = 0.0
        lr_samples = 0
        prev_t: Optional[float] = None

        def maybe_spawn(now: float) -> None:
            nonlocal spawn_counter
            total = len(active) + len(pending_spawns)
            if pending_spawns or total >= cfg.max_servers:
                return
            if ready_ids:
                server_id = ready_ids.popleft()
            else:
                server_id = f"lab{spawn_counter}"
                spawn_counter += 1
            pending_spawns.append((now + cfg.spawn_delay_s, server_id))
            metrics.spawns += 1

        def adopt(new_plan: Plan, now: float) -> None:
            nonlocal plan, last_plan_t
            changed = plan.diff(new_plan)
            plan = new_plan
            metrics.migrations += len(changed)
            metrics.plan_pushes += 1
            plan_seq.append((now, plan.version, plan_digest(plan)))
            last_plan_t = now

        for tick in history.ticks:
            now = tick.t
            dt = 0.0 if prev_t is None else now - prev_t
            prev_t = now
            metrics.ticks += 1

            # 1. spawn completions (ready exactly spawn_delay_s after the
            #    request, mirroring the cluster's loopback)
            still_pending: List[Tuple[float, str]] = []
            for ready_t, server_id in pending_spawns:
                if ready_t <= now:
                    if server_id not in active:
                        active.append(server_id)
                    started.setdefault(server_id, ready_t)
                    ended.pop(server_id, None)
                    pool_changed = True
                else:
                    still_pending.append((ready_t, server_id))
            pending_spawns = still_pending

            # 2. recorded failures / resurrections due by this tick
            while failures and failures[0][0] <= now:
                __, dead = failures.popleft()
                if dead in active:
                    active.remove(dead)
                    ended[dead] = now
                bootstrap.discard(dead)
                dead_pending.append(dead)
                if cfg.replace_failed_servers or len(active) < cfg.min_servers:
                    maybe_spawn(now)
            while resurrections and resurrections[0][0] <= now:
                __, back = resurrections.popleft()
                if back not in active:
                    active.append(back)
                started.setdefault(back, now)
                ended.pop(back, None)
                pool_changed = True

            # 3. the view this tick's decisions are based on
            view = self._build_view(tick, plan, active)

            # 4. plan repair for confirmed failures (policy placement)
            if dead_pending and active:
                pending, dead_pending = dead_pending, []
                for dead in pending:
                    ctx = PolicyContext(
                        now=now,
                        plan=plan,
                        view=view,
                        config=cfg,
                        active_servers=tuple(active + [dead]),
                        bootstrap_servers=frozenset(bootstrap),
                        default_nominal_bps=self.history.default_nominal_bps,
                    )
                    mappings = repair_mappings(ctx, self.policy, dead, active)
                    metrics.repairs += 1
                    adopt(
                        plan.evolve(
                            mappings=mappings, active_servers=tuple(active)
                        ),
                        now,
                    )

            # 5. latency proxy -> SLA monitor, plus load accounting
            monitor.poll(now)
            for server_id in active:
                lr = view.load_ratio(server_id)
                lr_sum += lr
                lr_samples += 1
                if lr > metrics.peak_load_ratio:
                    metrics.peak_load_ratio = lr
                queue = max(0.0, backlog.get(server_id, 0.0) + (lr - 1.0) * dt)
                backlog[server_id] = queue
                excess = max(0.0, lr - KNEE_LR)
                latency = BASE_LATENCY_S + queue + excess * excess * KNEE_GAIN_S
                for channel in view.channel_loads(server_id):
                    monitor.observe(now, latency, channel, server_id)

            # 6. the balancer's decision gate, verbatim
            waited_enough = (now - last_plan_t) >= cfg.t_wait_s
            if not (waited_enough or pool_changed):
                continue
            if not tick.all_bootstrap_reported:
                continue

            ctx = PolicyContext(
                now=now,
                plan=plan,
                view=view,
                config=cfg,
                active_servers=tuple(active),
                bootstrap_servers=frozenset(bootstrap),
                default_nominal_bps=self.history.default_nominal_bps,
                allow_scale_down=not pending_spawns,
            )
            decision = self.policy.decide(ctx)
            metrics.decisions += 1
            pool_changed = False
            if decision.is_noop:
                continue

            if decision.spawn_servers > 0:
                maybe_spawn(now)
            for server_id in decision.decommission:
                if server_id in active:
                    active.remove(server_id)
                    ended[server_id] = now
                    metrics.decommissions += 1
            if decision.mappings or decision.decommission:
                adopt(
                    plan.evolve(
                        mappings=decision.mappings, active_servers=tuple(active)
                    ),
                    now,
                )

        # Close SLA episodes: let the last samples age out of the window.
        monitor.poll(t_end + cfg.sla_window_s + 2 * monitor.slice_s)

        metrics.mean_load_ratio = lr_sum / lr_samples if lr_samples else 0.0
        metrics.final_plan_version = plan.version
        metrics.final_server_count = len(active)
        metrics.server_seconds = self._server_seconds(started, ended, t0, t_end)
        sla_report = monitor.report()
        metrics.sla = sla_report
        # Headline counts use the cluster-wide scope only; the per-server
        # episodes stay available in the full report.
        overall = [
            v for v in sla_report["violations"] if v["scope"] == OVERALL_SCOPE
        ]
        metrics.sla_violations = len(overall)
        metrics.sla_violation_seconds = sum(
            v["duration_s"] or 0.0 for v in overall
        )

        result = ReplayResult(metrics=metrics, plan_seq=plan_seq)
        if verify:
            result.divergences = self._diverging(plan_seq)
        return result

    # ------------------------------------------------------------------
    def _build_view(
        self, tick: TickRecord, plan: Plan, active: List[str]
    ) -> ClusterLoadView:
        view = ClusterLoadView(self.config.load_window_s)
        if self.mode == VERBATIM:
            # Bit-exact reconstruction: one synthetic report per server
            # carrying the recorded window means (a single-report window
            # averages to exactly those means), added in recorded view
            # order so cross-server float summation matches.
            for sample in tick.servers:
                view.add_report(sample.to_report(tick.t - 1.0, tick.t))
            return view

        # Modeled: re-assign the recorded logical demand onto the
        # *replayed* plan's servers, per replication-mode semantics.
        active_set = set(active)
        nominal = {s.server_id: s.nominal_bps for s in tick.servers}
        ring_members = set(plan.ring.servers)
        per_server: Dict[str, List[ChannelMetricsSnapshot]] = {s: [] for s in active}
        for demand in tick.totals:
            mapping = plan.mapping(demand.channel)
            homes = [s for s in mapping.servers if s in active_set]
            mode = mapping.mode
            if not homes:
                # The mapped server(s) are gone; route like a client whose
                # ring lookup excludes known-dead servers.
                exclude = ring_members - active_set
                if ring_members <= exclude:
                    continue  # every ring server is down
                home = plan.ring.lookup(demand.channel, exclude=sorted(exclude))
                if home not in active_set:
                    continue
                homes = [home]
                mode = ReplicationMode.SINGLE
            n = len(homes)
            sub_share = _split_int(demand.subscriber_count, n)
            for index, server_id in enumerate(homes):
                if mode is ReplicationMode.ALL_SUBSCRIBERS:
                    pubs = demand.publications_per_s / n
                    subs = demand.subscriber_count
                elif mode is ReplicationMode.ALL_PUBLISHERS:
                    pubs = demand.publications_per_s
                    subs = sub_share[index]
                else:
                    pubs = demand.publications_per_s
                    subs = demand.subscriber_count
                per_server[server_id].append(
                    ChannelMetricsSnapshot(
                        channel=demand.channel,
                        publications_per_s=pubs,
                        publisher_count=demand.publisher_count,
                        subscriber_count=subs,
                        messages_out_per_s=0.0,
                        bytes_out_per_s=demand.bytes_out_per_s / n,
                    )
                )
        for server_id in active:
            snaps = tuple(per_server[server_id])
            measured = sum(s.bytes_out_per_s for s in snaps)
            view.add_report(
                LoadReport(
                    server_id=server_id,
                    window_start=tick.t - 1.0,
                    window_end=tick.t,
                    nominal_egress_bps=nominal.get(
                        server_id, self.history.default_nominal_bps
                    ),
                    measured_egress_bps=measured,
                    channels=snaps,
                )
            )
        return view

    # ------------------------------------------------------------------
    def _server_seconds(
        self,
        started: Dict[str, float],
        ended: Dict[str, float],
        t0: float,
        t_end: float,
    ) -> float:
        total = 0.0
        for server_id, start_t in started.items():
            stop_t = min(ended.get(server_id, t_end), t_end)
            total += max(0.0, stop_t - max(start_t, t0))
        return total

    def _diverging(self, plan_seq: List[Tuple[float, int, str]]) -> List[str]:
        """Compare the replayed plan sequence against the recorded one."""
        recorded = sorted(self.history.plans, key=lambda p: p.version)
        out: List[str] = []
        for index in range(max(len(recorded), len(plan_seq))):
            if index >= len(recorded):
                t, version, digest = plan_seq[index]
                out.append(
                    f"extra replayed plan v{version} at t={t:g} (digest {digest})"
                )
                continue
            if index >= len(plan_seq):
                rec = recorded[index]
                out.append(
                    f"missing replayed plan v{rec.version} "
                    f"(recorded at t={rec.t:g}, digest {rec.digest})"
                )
                continue
            rec = recorded[index]
            t, version, digest = plan_seq[index]
            if version != rec.version or digest != rec.digest:
                out.append(
                    f"plan #{index} diverges: recorded v{rec.version}/"
                    f"{rec.digest} at t={rec.t:g}, replayed v{version}/"
                    f"{digest} at t={t:g}"
                )
                break  # later plans inherit the divergence; stop at first
        return out


def _split_int(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integers differing by at most one."""
    base, remainder = divmod(total, parts)
    return [base + (1 if index < remainder else 0) for index in range(parts)]
