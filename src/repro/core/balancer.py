"""The central Dynamoth load balancer (sections III-B, IV-A.1).

A single Load Balancer node aggregates the LLA reports into a
:class:`~repro.core.metrics.ClusterLoadView`, and periodically decides
whether a new plan is needed.  New plans are generated at most once every
``T_wait`` seconds (so one reconfiguration settles before the next)
through the configured :class:`~repro.core.policy.RebalancePolicy`
(``DynamothConfig.rebalance_policy``; the default ``paper`` policy is the
two-step rebalancer of :mod:`repro.core.rebalance`), then pushed reliably
to every dispatcher.  The balancer itself never places a channel -- every
placement decision, including plan repair after a server failure, goes
through the policy seam.  This is the only control loop: Experiment 2's
consistent-hashing comparator and every policy the lab compares run
inside it, as policies.

The balancer also drives elasticity: it asks the cloud for an extra server
when migration alone cannot relieve an overload, and decommissions drained
servers when the cluster is underloaded.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Set, Tuple

from repro.core.config import DynamothConfig
from repro.core.dispatcher import dispatcher_id
from repro.core.messages import (
    LoadReport,
    MappingNotice,
    NoMoreSubscribers,
    PlanPush,
    ServerSpawned,
)
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan
from repro.core.policy import (
    PolicyContext,
    RebalancePolicy,
    make_policy,
    repair_mappings,
)
from repro.core.stragglers import StragglerRegistry
from repro.obs.trace import (
    NULL_TRACER,
    DecommissionEvent,
    LoadReportEvent,
    LoadSnapshotEvent,
    MigrationSettledEvent,
    MigrationStartEvent,
    PlanGeneratedEvent,
    PlanPushedEvent,
    PlanRepairDoneEvent,
    PlanRepairStartEvent,
    ServerFailureConfirmedEvent,
    ServerReadyEvent,
    ServerResurrectedEvent,
    ServerSuspectEvent,
    SpawnRequestEvent,
    Tracer,
)
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask

#: How often the balancer re-evaluates the cluster state.
EVAL_INTERVAL_S = 1.0
#: Heartbeat failure detection: a monitored server (one that has reported
#: at least once) silent for this long is *suspected*...
HEARTBEAT_SUSPECT_S = 3.0
#: ...and a suspect silent for this much longer is *confirmed* failed,
#: triggering plan repair.  Detection only ever acts when reports stop
#: arriving, so failure-free runs are unaffected.
HEARTBEAT_CONFIRM_S = 2.0


class CloudOperations(Protocol):
    """What the balancer needs from the hosting cloud (the cluster)."""

    def request_spawn(self) -> None:
        """Rent one more pub/sub server; a ``ServerSpawned`` message will
        arrive at the balancer once it has booted."""
        ...

    def request_decommission(self, server_id: str) -> None:
        """Shut a drained server down after the forwarding grace period."""
        ...


@dataclass(frozen=True)
class BalancerEvent:
    """A timestamped control-plane action, kept for the experiment plots."""

    time: float
    #: "rebalance" | "repair" | "spawn-request" | "server-ready" |
    #: "decommission" | "server-suspect" | "server-failed" | "server-resurrected"
    kind: str
    detail: str = ""


class LoadBalancer(Actor):
    """The cluster-wide plan generator."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        config: DynamothConfig,
        initial_plan: Plan,
        cloud: CloudOperations,
        default_nominal_bps: float,
        rng: Random,
        *,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(sim, node_id, is_infra=True)
        self.config = config
        self.plan = initial_plan
        self._cloud = cloud
        self._default_nominal_bps = default_nominal_bps
        self._rng = rng
        self._tracer = tracer

        self.view = ClusterLoadView(config.load_window_s)
        self.active_servers: List[str] = list(initial_plan.active_servers)
        self.bootstrap_servers: Set[str] = set(initial_plan.active_servers)
        self.pending_spawns = 0
        self._last_plan_time = -float("inf")
        self._pool_changed = False

        self.events: List[BalancerEvent] = []
        #: (time, {server: LR}) samples, one per evaluation tick (Figure 6)
        self.load_history: List[Tuple[float, Dict[str, float]]] = []
        #: ground-truth plan ledger: every plan this balancer pushed, with
        #: its push time.  Plans are immutable so entries are just shared
        #: references; ``repro.check`` oracles replay convergence against
        #: this history.
        self.plan_history: List[Tuple[float, Plan]] = [(sim.now, initial_plan)]
        #: MappingNotice broadcasts sent under the eager-push strawman
        self.eager_notices_sent = 0
        #: recently displaced servers per channel, shipped with each push
        self._stragglers = StragglerRegistry(config.plan_entry_timeout_s)

        # --- heartbeat failure detection (repro.faults recovery path) ---
        #: servers confirmed dead and not yet resurrected
        self.failed_servers: Set[str] = set()
        #: server -> time its silence crossed the suspect threshold
        self._suspect_since: Dict[str, float] = {}
        #: server -> arrival time of its most recent LoadReport.  Kept
        #: separately from ``view`` because the sliding load window prunes
        #: reports far sooner than the failure-confirmation timeout.
        self._last_report_at: Dict[str, float] = {}
        #: failures confirmed while no live server existed to re-home onto;
        #: repaired as soon as a spawn completes
        self._pending_repairs: List[str] = []

        #: Read-only live-SLA signal (``repro.obs.sla.SlaMonitor``), wired
        #: by the cluster when SLA monitoring is configured.  The balancer
        #: polls it each evaluation tick so windows drain on sim time even
        #: when deliveries stop, and mirrors the violation count into a
        #: gauge -- it must never feed SLA state back into plan decisions
        #: (that would couple placement to the observability layer).
        self.sla_monitor: Optional[Any] = None

        #: The rebalancing policy every placement decision goes through
        #: (``config.rebalance_policy``; see :mod:`repro.core.policy`).
        self.policy: RebalancePolicy = make_policy(config)

        self._task = PeriodicTask(sim, EVAL_INTERVAL_S, self._evaluate)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        # Monitor the bootstrap servers from t=0: a server that dies before
        # its first report must still be detected (otherwise the
        # all-bootstrap-reported gate would block plan generation forever).
        now = self.sim.now
        for server_id in self.active_servers:
            self._last_report_at.setdefault(server_id, now)
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def receive(self, message: Any, src_id: str) -> None:
        if isinstance(message, LoadReport):
            self._last_report_at[message.server_id] = self.sim.now
            self._suspect_since.pop(message.server_id, None)
            if message.server_id in self.failed_servers:
                # A "dead" server is talking again (e.g. its LLA was only
                # stalled, or a partition healed): re-admit it.
                self._on_server_resurrected(message.server_id)
            self.view.add_report(message)
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(
                    LoadReportEvent(
                        self.sim.now,
                        message.server_id,
                        message.load_ratio,
                        message.cpu_utilization,
                        len(message.channels),
                    )
                )
                tracer.metrics.gauge(
                    "reported_load_ratio", server=message.server_id
                ).set(message.load_ratio)
        elif isinstance(message, ServerSpawned):
            self._on_server_ready(message.server_id)
        elif isinstance(message, NoMoreSubscribers):
            # stop re-seeding this straggler into future plan pushes
            self._stragglers.drain(message.channel, message.server_id)
            if self._tracer.enabled:
                self._tracer.emit(
                    MigrationSettledEvent(self.sim.now, message.channel, message.server_id)
                )
        else:
            raise TypeError(f"{self.node_id}: unexpected message {type(message).__name__}")

    def _on_server_ready(self, server_id: str) -> None:
        if server_id in self.failed_servers:
            # A crashed server came back (restart with the same id).
            self._on_server_resurrected(server_id)
        elif server_id not in self.active_servers:
            # Only a new id is a spawn completing; a restarted one must
            # not cancel the count of a replacement that is still booting.
            self.active_servers.append(server_id)
            self.pending_spawns = max(0, self.pending_spawns - 1)
        self._pool_changed = True
        self._last_report_at.setdefault(server_id, self.sim.now)
        self.events.append(BalancerEvent(self.sim.now, "server-ready", server_id))
        if self._tracer.enabled:
            self._tracer.emit(ServerReadyEvent(self.sim.now, server_id))
        if self._pending_repairs:
            # Failures confirmed while the pool was empty: repair now that
            # a live server exists to take the channels.
            pending, self._pending_repairs = self._pending_repairs, []
            for dead_id in pending:
                self._repair_plan(dead_id, self.sim.now)

    # ------------------------------------------------------------------
    # Periodic evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, now: float) -> None:
        self.view.prune(now)
        self._check_heartbeats(now)
        monitor = self.sla_monitor
        if monitor is not None:
            monitor.poll(now)
            if self._tracer.enabled:
                self._tracer.metrics.gauge("sla_violations_active").set(
                    len(monitor.active_scopes())
                )
        ratios = {s: self.view.load_ratio(s) for s in self.active_servers}
        self.load_history.append((now, ratios))
        if self._tracer.enabled:
            self._tracer.emit(LoadSnapshotEvent(now, dict(ratios)))

        waited_enough = (now - self._last_plan_time) >= self.config.t_wait_s
        if not (waited_enough or self._pool_changed):
            return
        # Only decide once every active server has reported at least once
        # (a fresh view would read as an idle cluster and trigger a bogus
        # scale-down).
        if not all(self.view.has_report(s) for s in self.bootstrap_servers):
            return

        decision = self.policy.decide(
            self._policy_context(now, allow_scale_down=self.pending_spawns == 0)
        )
        self._pool_changed = False
        if decision.is_noop:
            return

        if decision.spawn_servers > 0:
            self._maybe_spawn()

        for server_id in decision.decommission:
            if server_id in self.active_servers:
                self.active_servers.remove(server_id)
            self.events.append(BalancerEvent(now, "decommission", server_id))

        if decision.mappings or decision.decommission:
            self._adopt(
                decision.mappings,
                now,
                decommissioned=tuple(decision.decommission),
                spawn_requested=decision.spawn_servers > 0,
            )
            self.events.append(
                BalancerEvent(
                    now,
                    "rebalance",
                    f"v{self.plan.version}: {len(decision.mappings)} mappings, "
                    f"{len(decision.decommission)} decommissions",
                )
            )

        # Decommissioned servers keep running through the forwarding grace
        # window; the cloud shuts them down afterwards.
        for server_id in decision.decommission:
            self.view.forget_server(server_id)
            # Planned removal, not a failure: stop monitoring its heartbeat.
            self._last_report_at.pop(server_id, None)
            self._suspect_since.pop(server_id, None)
            self._cloud.request_decommission(server_id)
            if self._tracer.enabled:
                self._tracer.emit(DecommissionEvent(now, server_id))

    def _policy_context(
        self,
        now: float,
        *,
        active_servers: Optional[List[str]] = None,
        allow_scale_down: bool = True,
    ) -> PolicyContext:
        """Snapshot the balancer's state for one policy call."""
        servers = self.active_servers if active_servers is None else active_servers
        return PolicyContext(
            now=now,
            plan=self.plan,
            view=self.view,
            config=self.config,
            active_servers=tuple(servers),
            bootstrap_servers=frozenset(self.bootstrap_servers),
            default_nominal_bps=self._default_nominal_bps,
            allow_scale_down=allow_scale_down,
        )

    def _adopt(
        self,
        mappings: Dict[str, ChannelMapping],
        now: float,
        *,
        decommissioned: Tuple[str, ...] = (),
        spawn_requested: bool = False,
    ) -> None:
        """Make ``mappings`` part of the current plan and tell the cluster.

        The one path every plan change takes, rebalance and repair alike:
        evolve the plan, diff it once, record the displaced servers as
        stragglers (never a confirmed-dead one), trace the change, push it
        to every dispatcher (and the ``decommissioned`` ones, which keep
        forwarding through the grace window) and, under the eager-push
        strawman, to every client.
        """
        previous_plan = self.plan
        plan = self.plan = previous_plan.evolve(
            mappings=mappings, active_servers=tuple(self.active_servers)
        )
        changed = previous_plan.diff(plan)
        stragglers = self._stragglers
        stragglers.record(changed, now)
        if self.failed_servers:
            stragglers.drop_dead(self.failed_servers)
        stragglers.prune(now)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                PlanGeneratedEvent(
                    now, plan.version, tuple(changed), decommissioned, spawn_requested
                )
            )
            for channel, (old, new) in changed.items():
                tracer.emit(
                    MigrationStartEvent(
                        now,
                        plan.version,
                        channel,
                        tuple(old.servers),
                        tuple(new.servers),
                        new.mode.value,
                    )
                )
            tracer.metrics.counter("plans_generated_total").inc()
            tracer.metrics.gauge("plan_version").set(plan.version)
            tracer.metrics.gauge("plan_size").set(len(plan.explicit_channels()))
        self._push_plan(extra_recipients=decommissioned)
        if self.config.eager_plan_push:
            self._eager_push(changed)
        self._last_plan_time = now

    # ------------------------------------------------------------------
    # Heartbeat failure detection & plan repair (repro.faults subsystem)
    # ------------------------------------------------------------------
    def _check_heartbeats(self, now: float) -> None:
        """Suspect, then confirm, servers whose LLA reports stopped.

        A monitored server silent for ``HEARTBEAT_SUSPECT_S`` becomes a
        suspect; one silent for ``HEARTBEAT_CONFIRM_S`` longer is confirmed
        dead and its channels are re-homed.  Detection never acts while
        reports keep arriving, so failure-free runs are unaffected.
        """
        confirm_after = HEARTBEAT_SUSPECT_S + HEARTBEAT_CONFIRM_S
        for server_id in list(self.active_servers):
            last = self._last_report_at.get(server_id)
            if last is None:
                continue  # not monitored (no report and no spawn record)
            silence = now - last
            if silence >= confirm_after:
                self._confirm_failure(server_id, now, silence)
            elif silence >= HEARTBEAT_SUSPECT_S and server_id not in self._suspect_since:
                self._suspect_since[server_id] = now
                self.events.append(BalancerEvent(now, "server-suspect", server_id))
                if self._tracer.enabled:
                    self._tracer.emit(ServerSuspectEvent(now, server_id, silence))

    def _confirm_failure(self, server_id: str, now: float, silence: float) -> None:
        self._suspect_since.pop(server_id, None)
        self._last_report_at.pop(server_id, None)
        self.failed_servers.add(server_id)
        if server_id in self.active_servers:
            self.active_servers.remove(server_id)
        # A dead bootstrap server must not gate plan generation forever.
        self.bootstrap_servers.discard(server_id)
        self.events.append(BalancerEvent(now, "server-failed", server_id))
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(ServerFailureConfirmedEvent(now, server_id, silence))
            tracer.metrics.counter("server_failures_total").inc()
        self._repair_plan(server_id, now)
        if len(self.active_servers) < self.config.min_servers:
            self._maybe_spawn()

    def _repair_plan(self, dead_id: str, now: float) -> None:
        """Re-home every channel the dead server carried onto live servers.

        Covers both explicitly mapped channels and consistent-hashing
        fallback channels the view observed traffic for; fallback channels
        the balancer never saw are handled client-side by the
        exclusion-aware ring lookup.  Repair bypasses ``T_wait`` -- waiting
        out the settle window would prolong the outage.
        """
        live = list(self.active_servers)
        if not live:
            # Nothing to re-home onto; repair once a spawn completes.
            self._pending_repairs.append(dead_id)
            self.view.forget_server(dead_id)
            self._maybe_spawn()
            return

        mappings = repair_mappings(
            self._policy_context(now, active_servers=live + [dead_id]),
            self.policy,
            dead_id,
            live,
        )
        if self._tracer.enabled:
            self._tracer.emit(PlanRepairStartEvent(now, dead_id, tuple(mappings)))
        self.view.forget_server(dead_id)
        self._adopt(mappings, now)
        self.events.append(
            BalancerEvent(
                now, "repair", f"{dead_id} -> v{self.plan.version}: {len(mappings)} channels"
            )
        )
        if self._tracer.enabled:
            self._tracer.emit(PlanRepairDoneEvent(now, dead_id, self.plan.version))

    def _on_server_resurrected(self, server_id: str) -> None:
        now = self.sim.now
        self.failed_servers.discard(server_id)
        if server_id not in self.active_servers:
            self.active_servers.append(server_id)
        self._pool_changed = True
        self._last_report_at.setdefault(server_id, now)
        self.events.append(BalancerEvent(now, "server-resurrected", server_id))
        if self._tracer.enabled:
            self._tracer.emit(ServerResurrectedEvent(now, server_id))
        # Re-push the current plan so dispatchers clear the server from
        # their failed sets (receive() applies that even to a same-version
        # push); the next evaluation rebalances onto the returned capacity.
        self._push_plan()

    def _maybe_spawn(self) -> None:
        total = len(self.active_servers) + self.pending_spawns
        if self.pending_spawns > 0 or total >= self.config.max_servers:
            return
        self.pending_spawns += 1
        self.events.append(BalancerEvent(self.sim.now, "spawn-request"))
        if self._tracer.enabled:
            self._tracer.emit(SpawnRequestEvent(self.sim.now))
        self._cloud.request_spawn()

    def _push_plan(self, extra_recipients: Tuple[str, ...] = ()) -> None:
        if self.plan_history[-1][1] is not self.plan:
            self.plan_history.append((self.sim.now, self.plan))
        push = PlanPush(
            self.plan, self._stragglers.snapshot(), tuple(sorted(self.failed_servers))
        )
        size = PlanPush.WIRE_SIZE + 32 * len(self.plan.explicit_channels())
        recipients = list(self.active_servers) + list(extra_recipients)
        for server_id in recipients:
            self.send(dispatcher_id(server_id), push, size)
        if self._tracer.enabled:
            self._tracer.emit(
                PlanPushedEvent(self.sim.now, self.plan.version, tuple(recipients))
            )

    def _eager_push(
        self, changed: Dict[str, Tuple[ChannelMapping, ChannelMapping]]
    ) -> None:
        """Strawman propagation: notify *every* client of every change.

        This is what the paper's lazy scheme avoids; the ablation
        benchmark uses it to quantify the message overhead and spikes.
        """
        if not changed:
            return
        client_ids = getattr(self._cloud, "all_client_ids", lambda: [])()
        for channel, (__, new_mapping) in changed.items():  # diff order sorted
            notice = MappingNotice(channel, new_mapping)
            for client_id in client_ids:
                self.send(client_id, notice, MappingNotice.WIRE_SIZE)
                self.eager_notices_sent += 1

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def rebalance_times(self) -> List[float]:
        return [e.time for e in self.events if e.kind == "rebalance"]

    def average_load_ratio(self) -> float:
        return self.view.average_load_ratio(self.active_servers)
