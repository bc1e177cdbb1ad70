"""One run spec, one run record: the paper's macro evaluation as data.

Sections V-D/V-E (Figures 5-7) are one deployment -- RGame players on an
elastic pool of pub/sub servers -- driven by different population
schedules, and the comparator is the same middleware under another
placement rule.  A :class:`RunSpec` says *which* run (population, pool,
broker calibration, control-plane config including the policy, faults);
:func:`build` is the one place that turns it into a cluster and a
workload; :func:`run` is ``build`` plus the readers (response-time
buckets and the per-second sampler) and returns a :class:`RunRecord` of
plain picklable data.  Figures, policy-lab rows and the headline are
readings of a record; :data:`SPECS` names every preset the
``experiments``, ``lab`` and ``sweep`` CLIs index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.broker.config import BrokerConfig
from repro.core.cluster import DynamothCluster
from repro.core.config import DynamothConfig
from repro.experiments.records import BucketedStat, Sampler, SeriesRecorder
from repro.faults import ChaosSchedule, CrashServer, FaultInjector
from repro.faults.schedule import FaultAction
from repro.obs.trace import Tracer
from repro.workload.rgame import RGameConfig, RGameWorkload, RttSink
from repro.workload.schedules import PopulationSchedule


@dataclass(frozen=True)
class RunSpec:
    """Which RGame run: everything but the seed."""

    name: str
    describe: str
    duration_s: float
    #: ``(time, players)`` breakpoints.  One breakpoint is a static
    #: population present before the clock starts; two or more are
    #: followed once per second, linearly interpolated.
    population: Tuple[Tuple[float, int], ...]
    tiles_per_side: int
    nominal_egress_bps: float
    #: every control-plane tunable: pool bounds, timing, the policy
    config: DynamothConfig
    initial_servers: int = 1
    updates_per_s: float = 3.0
    payload_size: int = 200
    #: armed before the workload exists; may only name bootstrap servers
    faults: Tuple[FaultAction, ...] = ()


def with_policy(spec: RunSpec, name: str, **config_overrides: Any) -> RunSpec:
    """``spec`` under rebalancing policy ``name`` (plus config overrides)."""
    config = replace(spec.config, rebalance_policy=name, **config_overrides)
    return replace(spec, config=config)


def build(
    spec: RunSpec,
    seed: int,
    *,
    tracer: Optional[Tracer] = None,
    rtt_sink: Optional[RttSink] = None,
) -> Tuple[DynamothCluster, RGameWorkload]:
    """The cluster and started workload of ``spec``, clock still at zero."""
    cluster = DynamothCluster(
        seed=seed,
        config=spec.config,
        broker_config=BrokerConfig(
            nominal_egress_bps=spec.nominal_egress_bps,
            cpu_per_publish_s=10e-6,
            cpu_per_delivery_s=5e-6,
            per_connection_bps=None,
            output_buffer_limit_bytes=8 * 1_048_576,
        ),
        initial_servers=spec.initial_servers,
        tracer=tracer,
    )
    if spec.faults:
        for action in spec.faults:
            server = getattr(action, "server", None)
            if server is not None and server not in cluster.servers:
                raise ValueError(f"fault target {server!r} is not a bootstrap server")
        FaultInjector(cluster, ChaosSchedule(spec.faults)).arm()
    workload = RGameWorkload(
        cluster,
        RGameConfig(
            tiles_per_side=spec.tiles_per_side,
            updates_per_s=spec.updates_per_s,
            payload_size=spec.payload_size,
        ),
        rtt_sink=rtt_sink,
    )
    if len(spec.population) == 1:
        # No driver task: a static population costs no event per second.
        workload.add_players(spec.population[0][1])
    else:
        workload.follow(PopulationSchedule(spec.population))
    return cluster, workload


@dataclass
class RunRecord:
    """What one finished run left behind, as plain data."""

    spec: RunSpec
    seed: int
    policy: str
    end_t: float
    #: per-second ``population`` / ``servers`` / ``deliveries_per_s``
    series: SeriesRecorder
    #: publish -> own update back, bucketed per second
    response_times: BucketedStat
    rebalance_times: List[float]
    #: ``(time, kind, detail)`` of every balancer event
    balancer_events: List[Tuple[float, str, str]]
    #: ``(time, {server: load ratio})`` per balancer evaluation
    load_history: List[Tuple[float, Dict[str, float]]]
    plan_pushes: int
    #: channel assignment changes across all pushed plans (plan churn)
    migrations: int
    final_plan_version: int
    final_server_count: int
    server_seconds: float
    updates_sent: int
    #: the SLA monitor's report (None unless traced with a threshold set)
    sla: Optional[Dict[str, Any]]

    # --- Figures 5a / 5b / 5c / 7 ---
    def population_series(self) -> List[Tuple[float, float]]:
        return self.series.get("population")

    def server_series(self) -> List[Tuple[float, float]]:
        return self.series.get("servers")

    def messages_series(self) -> List[Tuple[float, float]]:
        return self.series.get("deliveries_per_s")

    def response_series(self) -> List[Tuple[int, float]]:
        return self.response_times.mean_series()

    # --- Figure 6 ---
    def load_ratio_series(self) -> List[Tuple[float, float, float]]:
        """(time, average LR, busiest-server LR) samples."""
        out = []
        for t, ratios in self.load_history:
            if ratios:
                values = list(ratios.values())
                out.append((t, sum(values) / len(values), max(values)))
        return out

    # --- headline ---
    def max_sustainable_players(
        self, latency_bound_s: float = 0.150, smooth_window_s: float = 10.0
    ) -> int:
        """Largest population reached while the smoothed average response
        time still met the paper's 150 ms playability bound."""
        half = smooth_window_s / 2.0
        best = 0
        for t, population in self.population_series():
            smoothed = self.response_times.window_mean(t - half, t + half)
            if smoothed is None or smoothed <= latency_bound_s:
                best = max(best, int(population))
        return best

    def delivery_ratio(self) -> float:
        """Own updates that came back / updates published."""
        return self.response_times.count / self.updates_sent if self.updates_sent else 1.0

    # --- elasticity ---
    def peak_server_count(self) -> int:
        return int(self.series.max("servers") or 0)

    def server_count_at(self, time: float) -> int:
        best = 0
        for t, value in self.server_series():
            if t > time:
                break
            best = int(value)
        return best

    def scaled_down(self) -> bool:
        """Whether the pool was below its peak after the population's
        post-peak trough ended."""
        points = self.spec.population
        peak_at = max(range(len(points)), key=lambda i: points[i][1])
        after_peak = points[peak_at:]
        trough = min(players for __, players in after_peak)
        trough_end = max(t for t, players in after_peak if players == trough)
        peak = self.peak_server_count()
        after = min(
            (int(v) for t, v in self.server_series() if t > trough_end), default=peak
        )
        return after < peak


def run(spec: RunSpec, seed: int = 0, *, tracer: Optional[Tracer] = None) -> RunRecord:
    """``build`` + the readers, run to ``spec.duration_s``; the record."""
    rtt = BucketedStat()
    cluster, workload = build(
        spec, seed, tracer=tracer, rtt_sink=lambda value, t: rtt.add(t, value)
    )
    series = SeriesRecorder()
    sampler = Sampler(cluster.sim, series, period=1.0)
    sampler.add_gauge("population", lambda now: workload.population)
    sampler.add_gauge("servers", lambda now: cluster.server_count)
    # Cumulative deliveries across servers; a decommissioned server's total
    # stays frozen in ``totals``.
    totals: Dict[str, int] = {}

    def cumulative_deliveries() -> float:
        for server_id, server in cluster.servers.items():
            totals[server_id] = server.delivery_count
        return float(sum(totals.values()))

    sampler.add_rate_gauge("deliveries_per_s", cumulative_deliveries)
    sampler.start(start_delay=1.0)
    cluster.run_until(spec.duration_s)
    workload.stop()
    sampler.stop()

    balancer = cluster.balancer
    assert balancer is not None
    plans = [plan for __, plan in balancer.plan_history]
    monitor = cluster.sla_monitor
    return RunRecord(
        spec=spec,
        seed=seed,
        policy=balancer.policy.name,
        end_t=cluster.sim.now,
        series=series,
        response_times=rtt,
        rebalance_times=balancer.rebalance_times(),
        balancer_events=[(e.time, e.kind, e.detail) for e in balancer.events],
        load_history=list(balancer.load_history),
        plan_pushes=len(plans) - 1,
        migrations=sum(len(old.diff(new)) for old, new in zip(plans, plans[1:])),
        final_plan_version=balancer.plan.version,
        final_server_count=cluster.server_count,
        server_seconds=cluster.server_seconds(),
        updates_sent=workload.total_updates_sent(),
        # not polled first: the report is the monitor's state as the run left it
        sla=monitor.report(cluster.sim.now) if monitor is not None else None,
    )


# ----------------------------------------------------------------------
# Every named run.  The default fig 5 / fig 7 entries are ~1/2-scale
# worlds with proportionally smaller per-server bandwidth, so a run takes
# about a minute; ``-paper`` are the original magnitudes and ``-smoke``
# the tier-1 presets.
# ----------------------------------------------------------------------
_FIG5 = "RGame ramp, Dynamoth vs consistent hashing (Figs 5a/5b/5c, 6)"
_FIG7 = "RGame population up, down and up again (Figs 7a/7b)"

SPECS: Dict[str, RunSpec] = {
    spec.name: spec
    for spec in (
        RunSpec(
            name="fig5",
            describe=_FIG5,
            duration_s=500.0,
            population=((0.0, 60), (450.0, 620)),
            tiles_per_side=8,
            nominal_egress_bps=620_000.0,
            # paper-like rebalance cadence (Fig 5 shows reconfigurations
            # tens of seconds apart); a very short T_wait thrashes the
            # transition machinery
            config=DynamothConfig(max_servers=8, t_wait_s=20.0),
        ),
        RunSpec(
            name="fig5-smoke",
            describe=_FIG5,
            duration_s=100.0,
            population=((0.0, 10), (80.0, 80)),
            tiles_per_side=3,
            nominal_egress_bps=150_000.0,
            config=DynamothConfig(max_servers=4, t_wait_s=10.0),
        ),
        # the original magnitudes: 120 -> 1200 players, 64 tiles
        RunSpec(
            name="fig5-paper",
            describe=_FIG5,
            duration_s=660.0,
            population=((0.0, 120), (600.0, 1200)),
            tiles_per_side=8,
            nominal_egress_bps=1_450_000.0,
            config=DynamothConfig(max_servers=8, t_wait_s=10.0),
        ),
        # plan_entry_timeout_s=15 makes scale-down reactive enough to
        # observe within the run
        RunSpec(
            name="fig7",
            describe=_FIG7,
            duration_s=570.0,
            population=(
                (0.0, 0), (90.0, 360), (180.0, 360), (270.0, 90),
                (360.0, 90), (450.0, 260), (540.0, 260),
            ),
            tiles_per_side=8,
            nominal_egress_bps=620_000.0,
            config=DynamothConfig(max_servers=8, plan_entry_timeout_s=15.0),
        ),
        RunSpec(
            name="fig7-smoke",
            describe=_FIG7,
            duration_s=270.0,
            population=(
                (0.0, 0), (40.0, 60), (80.0, 60), (120.0, 15),
                (160.0, 15), (200.0, 45), (240.0, 45),
            ),
            tiles_per_side=3,
            nominal_egress_bps=150_000.0,
            config=DynamothConfig(max_servers=4, plan_entry_timeout_s=15.0),
        ),
        # the paper's 800 / 200 / ~580 plateaus
        RunSpec(
            name="fig7-paper",
            describe=_FIG7,
            duration_s=750.0,
            population=(
                (0.0, 0), (120.0, 800), (240.0, 800), (360.0, 200),
                (480.0, 200), (600.0, 580), (720.0, 580),
            ),
            tiles_per_side=8,
            nominal_egress_bps=1_450_000.0,
            config=DynamothConfig(max_servers=8, plan_entry_timeout_s=15.0),
        ),
        # Mild constant load on an over-provisioned pool: exercises the
        # low-load drain path (server-hours differ across policies).
        RunSpec(
            name="steady",
            describe="constant moderate load, over-provisioned pool",
            duration_s=60.0,
            population=((0.0, 30), (60.0, 30)),
            tiles_per_side=3,
            nominal_egress_bps=200_000.0,
            config=DynamothConfig(max_servers=4),
            initial_servers=2,
        ),
        # A quiet start, then the population quadruples in seconds: the
        # paper's flash-crowd shape.  Overloads the single bootstrap
        # server hard enough to force migrations and spawns.
        RunSpec(
            name="flash-crowd",
            describe="population spike overloading the bootstrap server",
            duration_s=90.0,
            population=((0.0, 12), (20.0, 12), (28.0, 90), (90.0, 90)),
            tiles_per_side=3,
            nominal_egress_bps=150_000.0,
            config=DynamothConfig(max_servers=4),
        ),
        # Steady load, the second bootstrap server hard-crashes mid-run:
        # every policy's unknown-channel placement repairs the plan.
        RunSpec(
            name="crash",
            describe="broker crash under steady load",
            duration_s=90.0,
            population=((0.0, 40), (90.0, 40)),
            tiles_per_side=3,
            nominal_egress_bps=250_000.0,
            config=DynamothConfig(max_servers=4),
            initial_servers=3,
            faults=(CrashServer(30.0, "pub2"),),
        ),
    )
}
