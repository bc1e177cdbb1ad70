"""``python -m repro.lab`` -- compare rebalancing policies by running them.

One subcommand::

    compare  run one named run spec (steady / flash-crowd / crash, or
             any other entry of ``repro.experiments.run.SPECS``) under
             every registered policy -- same seed, same SLA threshold --
             and print a markdown (or JSON) comparison report

Every row is a full simulator run (a few CPU-seconds at most), read off
what the live balancer did; the report is seed-deterministic end to end.
``python -m repro.sweep lab`` runs all scenarios and fans the runs over
worker processes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence, Tuple

from repro.core.policy import available_policies, policy_class
from repro.experiments.run import SPECS
from repro.lab.compare import (
    DEFAULT_SLA_THRESHOLD_S,
    compare_policies,
    report_json,
    report_markdown,
)


def policy_names(value: str) -> Tuple[str, ...]:
    """``--policies a,b`` -> names, rejected before anything is run."""
    names = tuple(p.strip() for p in value.split(",") if p.strip())
    try:
        for name in names:
            policy_class(name)
    except ValueError as exc:  # names the registered policies
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _cmd_compare(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    report = compare_policies(
        SPECS[args.scenario],
        args.policies,
        seed=args.seed,
        sla_threshold_s=args.sla_threshold,
    )
    rendered = report_json(report) if args.json else report_markdown(report)
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
        description="Compare rebalancing policies by running each one live.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run a live scenario under every policy")
    compare.add_argument(
        "--scenario",
        choices=sorted(SPECS),
        default="flash-crowd",
        help="which live scenario to run",
    )
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--policies",
        type=policy_names,
        default=(),
        help=f"comma-separated policy names (default: all registered: "
        f"{', '.join(available_policies())})",
    )
    compare.add_argument(
        "--sla-threshold",
        type=float,
        default=DEFAULT_SLA_THRESHOLD_S,
        help="SLA threshold on the windowed delivery latency, in seconds",
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
