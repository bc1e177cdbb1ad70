"""``python -m repro.lab`` -- record, replay and compare rebalancing policies.

Three subcommands::

    record   run a live scenario (steady / flash-crowd / crash) and save
             the balancer's tick-by-tick load history to a JSONL file
    replay   re-run one recorded history against one policy; with
             ``--verify`` assert the replayed plan sequence matches the
             recorded one (the paper-policy seam-equivalence gate)
    compare  replay the history against every registered policy and
             print a markdown (or JSON) comparison report

Recording runs the full simulator once; replaying is pure arithmetic
over the recorded ticks, so comparing five policies costs milliseconds.
All three are seed-deterministic end to end.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.broker.config import BrokerConfig
from repro.core.cluster import DynamothCluster
from repro.core.config import DynamothConfig
from repro.core.policy import available_policies
from repro.faults import ChaosSchedule, FaultInjector
from repro.lab.compare import compare_policies
from repro.lab.history import LoadHistory, LoadHistoryRecorder
from repro.lab.replay import MODELED, VERBATIM, PolicyReplayer
from repro.workload.rgame import RGameConfig, RGameWorkload
from repro.workload.schedules import PopulationSchedule, steps


# ----------------------------------------------------------------------
# Recording scenarios
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One recordable live scenario."""

    name: str
    describe: str
    duration_s: float
    initial_servers: int
    max_servers: int
    nominal_egress_bps: float
    schedule: PopulationSchedule
    tiles_per_side: int = 3
    updates_per_s: float = 3.0
    payload_size: int = 200
    #: crash the second bootstrap server at this time (None = no faults)
    crash_at_s: Optional[float] = None

    def dynamoth_config(self) -> DynamothConfig:
        return DynamothConfig(
            max_servers=self.max_servers,
            min_servers=1,
            spawn_delay_s=5.0,
            t_wait_s=10.0,
        )

    def broker_config(self) -> BrokerConfig:
        return BrokerConfig(
            nominal_egress_bps=self.nominal_egress_bps,
            cpu_per_publish_s=10e-6,
            cpu_per_delivery_s=5e-6,
            per_connection_bps=None,
            output_buffer_limit_bytes=8 * 1_048_576,
        )


#: Every recordable live scenario, by name (``record --scenario`` here and
#: ``python -m repro.sweep lab --scenario``).
SCENARIOS: Dict[str, Scenario] = {
    # Mild constant load on an over-provisioned pool: exercises the
    # low-load drain path (server-hours differ across policies).
    "steady": Scenario(
        name="steady",
        describe="constant moderate load, over-provisioned pool",
        duration_s=60.0,
        initial_servers=2,
        max_servers=4,
        nominal_egress_bps=200_000.0,
        schedule=steps([(0.0, 30), (60.0, 30)]),
    ),
    # A quiet start, then the population quadruples in seconds: the
    # paper's flash-crowd shape.  Overloads the single bootstrap
    # server hard enough to force migrations and spawns.
    "flash-crowd": Scenario(
        name="flash-crowd",
        describe="population spike overloading the bootstrap server",
        duration_s=90.0,
        initial_servers=1,
        max_servers=4,
        nominal_egress_bps=150_000.0,
        schedule=steps([(0.0, 12), (20.0, 12), (28.0, 90), (90.0, 90)]),
    ),
    # Steady load, one broker hard-crashes mid-run: records the
    # failure/repair event stream for fault-path replay.
    "crash": Scenario(
        name="crash",
        describe="broker crash under steady load",
        duration_s=90.0,
        initial_servers=3,
        max_servers=4,
        nominal_egress_bps=250_000.0,
        schedule=steps([(0.0, 40), (90.0, 40)]),
        crash_at_s=30.0,
    ),
}


def record_scenario(scenario: Scenario, seed: int) -> LoadHistory:
    """Run one live scenario with a history recorder attached."""
    cluster = DynamothCluster(
        seed=seed,
        config=scenario.dynamoth_config(),
        broker_config=scenario.broker_config(),
        initial_servers=scenario.initial_servers,
    )
    recorder = LoadHistoryRecorder(label=scenario.name, seed=seed)
    cluster.balancer.history_recorder = recorder

    if scenario.crash_at_s is not None:
        victim = sorted(cluster.servers)[min(1, len(cluster.servers) - 1)]
        FaultInjector(
            cluster, ChaosSchedule.single_crash(victim, at=scenario.crash_at_s)
        ).arm()

    workload = RGameWorkload(
        cluster,
        RGameConfig(
            tiles_per_side=scenario.tiles_per_side,
            updates_per_s=scenario.updates_per_s,
            payload_size=scenario.payload_size,
        ),
    )
    workload.follow(scenario.schedule)
    cluster.run_until(scenario.duration_s)
    workload.stop()
    return recorder.finalize(cluster.balancer)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_record(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    scenario = SCENARIOS[args.scenario]
    history = record_scenario(scenario, args.seed)
    history.save(args.out)
    out(
        f"recorded {len(history.ticks)} ticks, {len(history.plans)} plans, "
        f"{len(history.events)} pool events ({scenario.describe})"
    )
    out(f"history written to {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    history = LoadHistory.load(args.history)
    replayer = PolicyReplayer(history, args.policy, mode=args.mode)
    result = replayer.run(verify=args.verify)
    if args.json:
        import json

        out(json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True))
    else:
        m = result.metrics
        out(
            f"policy {m.policy} ({m.mode}): {m.ticks} ticks, "
            f"{m.plan_pushes} pushes, {m.migrations} migrations, "
            f"{m.spawns} spawns, {m.decommissions} decommissions, "
            f"{m.sla_violations} SLA violations "
            f"({m.sla_violation_seconds:.1f}s), "
            f"{m.server_hours:.3f} server-hours"
        )
    if args.verify:
        if result.divergences:
            out("plan sequence DIVERGES from the recorded run:")
            for line in result.divergences:
                out(f"  - {line}")
            return 1
        out(
            f"plan sequence matches the recorded run "
            f"({len(result.plan_seq)} plans, digests identical)"
        )
    return 0


def _cmd_compare(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    history = LoadHistory.load(args.history)
    policies: Optional[List[str]] = None
    if args.policies:
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    report = compare_policies(
        history, policies, sla_threshold_s=args.sla_threshold
    )
    rendered = report.to_json() if args.json else report.to_markdown()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        out(f"report written to {args.out}")
    else:
        out(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lab",
        description="Record, replay and compare rebalancing policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a live scenario and save its load history")
    record.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="flash-crowd",
        help="which live scenario to run",
    )
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--out", required=True, help="output history file (JSONL)")
    record.set_defaults(func=_cmd_record)

    replay = sub.add_parser("replay", help="replay a history against one policy")
    replay.add_argument("history", help="recorded history file")
    replay.add_argument(
        "--policy",
        default="paper",
        help=f"policy to replay (registered: {', '.join(available_policies())})",
    )
    replay.add_argument(
        "--mode",
        choices=[VERBATIM, MODELED],
        default=MODELED,
        help="verbatim rebuilds the recorded views bit-exactly; "
        "modeled re-assigns demand to the replayed policy's plan",
    )
    replay.add_argument(
        "--verify",
        action="store_true",
        help="assert the replayed plan sequence matches the recorded one "
        "(use with --mode verbatim and the recorded policy)",
    )
    replay.add_argument("--json", action="store_true", help="print metrics as JSON")
    replay.set_defaults(func=_cmd_replay)

    compare = sub.add_parser("compare", help="replay a history against every policy")
    compare.add_argument("history", help="recorded history file")
    compare.add_argument(
        "--policies",
        default="",
        help="comma-separated policy names (default: all registered)",
    )
    compare.add_argument(
        "--sla-threshold",
        type=float,
        default=None,
        help="latency-proxy SLA threshold in seconds "
        "(default: the recorded config's, else 0.25)",
    )
    compare.add_argument("--json", action="store_true", help="emit JSON instead of markdown")
    compare.add_argument("--out", default="", help="write the report to this file")
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace, Callable[[str], None]], int] = args.func
    return handler(args, lambda line: print(line, file=sys.stdout))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
