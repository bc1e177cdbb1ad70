"""Chaos scenario: crash a broker under the RGame workload, measure recovery.

The canonical acceptance scenario of the ``repro.faults`` subsystem: a
steady RGame population publishes on tile channels across three pub/sub
servers; at ``crash_at_s`` one server hard-crashes (no FIN, no warning).
The run then exercises the full recovery chain:

1. the balancer's heartbeat monitor suspects and then confirms the
   failure (LLA reports stopped);
2. plan repair re-homes the dead server's channels onto the survivors and
   pushes the repaired plan;
3. ping-probing clients declare the server dead, fail over, and
   resubscribe with exponential backoff until every subscription is
   acked again.

The result quantifies each stage relative to the crash instant --
detection, repair, and the **time-to-recover**: when the *slowest*
affected subscriber received an application publication again.  Clients
that never recover make the scenario fail, which is exactly what the CI
``chaos-smoke`` job asserts.

Everything is seed-deterministic: the same seed produces the same fault
timeline, the same recovery milestones, and a byte-identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import DynamothConfig
from repro.experiments.run import RunSpec, build
from repro.faults import ChaosSchedule
from repro.obs.recovery import RecoveryWatch
from repro.obs.trace import Tracer


@dataclass
class ChaosScenarioConfig:
    """Parameters of one broker-crash run."""

    tiles_per_side: int = 4
    players: int = 60
    #: virtual time of the crash
    crash_at_s: float = 30.0
    duration_s: float = 90.0
    #: restart the victim this long after the crash (None = stays dead)
    restart_after_s: Optional[float] = None
    #: crash victim; None picks the second bootstrap server
    victim: Optional[str] = None
    updates_per_s: float = 2.0
    payload_size: int = 200
    nominal_egress_bps: float = 400_000.0
    initial_servers: int = 3
    max_servers: int = 4
    t_wait_s: float = 10.0
    #: chaos runs enable client-side ping probing: without it a client
    #: learns of a crash only from a survivor's ``FailureNotice``, after the
    #: balancer confirms it, and only if it holds a subscription on a survivor
    client_ping_interval_s: float = 1.0
    #: windowed delivery-latency SLA threshold (None disables the monitor)
    sla_threshold_s: Optional[float] = 0.5
    #: reliability layer (repro.core.reliability): at_most_once |
    #: at_least_once | exactly_once
    delivery_tier: str = "at_most_once"
    seed: int = 0

    @classmethod
    def smoke(cls) -> "ChaosScenarioConfig":
        """A small, fast preset for CI (the ``chaos-smoke`` job)."""
        return cls(
            tiles_per_side=3,
            players=24,
            crash_at_s=20.0,
            duration_s=60.0,
            nominal_egress_bps=250_000.0,
            # tight enough that the post-crash resubscribe surge trips a
            # violation episode, loose enough that steady state meets it
            sla_threshold_s=0.15,
        )

    def spec(self) -> RunSpec:
        """This scenario as a run: a static population and one crash."""
        victim = self.victim or f"pub{min(2, self.initial_servers)}"
        crash = ChaosSchedule.single_crash(
            victim, at=self.crash_at_s, restart_after_s=self.restart_after_s
        )
        return RunSpec(
            name="chaos",
            describe="broker crash under RGame workload",
            duration_s=self.duration_s,
            population=((0.0, self.players),),
            tiles_per_side=self.tiles_per_side,
            nominal_egress_bps=self.nominal_egress_bps,
            config=DynamothConfig(
                max_servers=self.max_servers,
                spawn_delay_s=5.0,
                t_wait_s=self.t_wait_s,
                client_ping_interval_s=self.client_ping_interval_s,
                sla_threshold_s=self.sla_threshold_s,
                delivery_tier=self.delivery_tier,
            ),
            initial_servers=self.initial_servers,
            updates_per_s=self.updates_per_s,
            payload_size=self.payload_size,
            faults=crash.actions,
        )


@dataclass
class ChaosResult:
    """Recovery milestones of one run, all relative to the crash time."""

    config: ChaosScenarioConfig
    victim: str
    crash_t: float
    #: crash -> balancer failure confirmation (None = never detected)
    detection_s: Optional[float]
    #: crash -> repaired plan pushed (None = never repaired)
    repair_s: Optional[float]
    #: clients that declared the victim dead and failed over
    failover_count: int
    #: crash -> slowest affected client delivering again (None while any
    #: affected client never received another publication)
    recovery_s: Optional[float]
    #: acked resubscribes recorded during recovery
    reconnects: int
    tracer: Tracer
    #: live SLA monitor report (None when no threshold was configured)
    sla: Optional[Dict[str, Any]] = None

    @property
    def recovered(self) -> bool:
        """Every affected subscriber resumed delivery."""
        return self.failover_count == 0 or self.recovery_s is not None

    def within_bound(self, bound_s: float) -> bool:
        return self.recovered and (self.recovery_s or 0.0) <= bound_s


def run_chaos(
    config: Optional[ChaosScenarioConfig] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> ChaosResult:
    """One crash-and-recover run.

    A tracer is always attached -- the recovery milestones are computed
    online by a :class:`RecoveryWatch` observer as events stream through
    the tracer, so the run works unchanged with a streaming sink and no
    event buffer.  The tracer is handed back through ``result.tracer``
    (the CLI dumps or finalizes it when ``--trace`` was given).
    """
    config = config if config is not None else ChaosScenarioConfig()
    tracer = tracer if tracer is not None else Tracer()
    spec = config.spec()
    cluster, __ = build(spec, config.seed, tracer=tracer)
    # ``faults[0]`` is the crash (a restart may follow it).
    watch = RecoveryWatch(spec.faults[0].server)
    watch.attach(tracer)
    cluster.run_until(spec.duration_s)

    if watch.crash_t is None:  # pragma: no cover - the schedule always fires
        raise RuntimeError("crash never executed; check crash_at_s < duration_s")
    monitor = cluster.sla_monitor
    if monitor is not None:
        monitor.poll(cluster.sim.now)
    return ChaosResult(
        config=config,
        victim=watch.victim,
        crash_t=watch.crash_t,
        detection_s=watch.detection_s,
        repair_s=watch.repair_s,
        failover_count=watch.failover_count,
        recovery_s=watch.recovery_s,
        reconnects=watch.reconnects,
        tracer=tracer,
        sla=monitor.report(cluster.sim.now) if monitor is not None else None,
    )


def render_chaos(result: ChaosResult) -> str:
    """A compact report of the recovery chain."""
    config = result.config
    lines: List[str] = []
    out = lines.append
    out("Chaos scenario -- broker crash under RGame workload")
    out(
        f"  {config.players} players, {config.initial_servers} servers, "
        f"{config.tiles_per_side}x{config.tiles_per_side} tiles, "
        f"seed {config.seed}"
    )
    out(f"  victim {result.victim} crashed at t={result.crash_t:.2f}s")
    out("")
    detect = (
        f"+{result.detection_s:.2f}s"
        if result.detection_s is not None
        else "NEVER"
    )
    repair = f"+{result.repair_s:.2f}s" if result.repair_s is not None else "NEVER"
    out(f"  failure detected (heartbeat confirm)   {detect}")
    out(f"  plan repaired and pushed               {repair}")
    out(f"  client failovers                       {result.failover_count}")
    out(f"  acked resubscribes                     {result.reconnects}")
    if result.failover_count:
        recover = (
            f"+{result.recovery_s:.2f}s"
            if result.recovery_s is not None
            else "NEVER (subscriber lost!)"
        )
        out(f"  slowest subscriber delivering again    {recover}")
    sla = result.sla
    if sla is not None:
        quantile = sla["quantile"]
        out("")
        out(
            f"  SLA: windowed p{quantile:g} delivery latency vs "
            f"{sla['threshold_s'] * 1e3:.0f}ms "
            f"({sla['window_s']:.0f}s window)"
        )
        out(
            f"    violations                           "
            f"{sla['violation_count']} "
            f"({sla['violation_seconds']:.1f}s total"
            + (f", {sla['open_count']} still open)" if sla["open_count"] else ")")
        )
        overall = sla["scopes"].get("overall", {}).get("value_s")
        if overall is not None:
            out(
                f"    overall windowed p{quantile:g} (end of run)   "
                f"{overall * 1e3:.2f}ms"
            )
    out("")
    out("  verdict: " + ("RECOVERED" if result.recovered else "SUBSCRIPTION LOST"))
    return "\n".join(lines)
