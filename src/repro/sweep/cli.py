"""``python -m repro.sweep`` -- soaks and policy comparisons.

Subcommands::

    check   soak N generated check-scenario seeds through every oracle
            (``python -m repro.check --seed S`` replays one)
    lab     run lab specs (steady / flash-crowd / crash, or any other
            entry of ``repro.experiments.run.SPECS``) live under every
            registered policy -- same seed, same SLA threshold

Both fan work over a ``spawn`` process pool (``--procs``) and merge
results in task order, so the JSON/markdown reports are byte-stable
across process counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.config import DELIVERY_TIERS
from repro.core.policy import policy_class
from repro.experiments.run import SPECS
from repro.lab.compare import LAB_SPECS, report_markdown
from repro.sweep.orchestrator import check_markdown, check_sweep, lab_sweep, replay_command

_Out = Callable[[str], None]


def policy_names(value: str) -> Tuple[str, ...]:
    """``--policies a,b`` -> names, rejected before anything is run."""
    names = tuple(p.strip() for p in value.split(",") if p.strip())
    try:
        for name in names:
            policy_class(name)
    except ValueError as exc:  # names the registered policies
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _write_outputs(
    doc: Dict[str, Any],
    markdown: str,
    args: argparse.Namespace,
    out: _Out,
) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out(f"JSON report written to {args.output}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        out(f"markdown report written to {args.markdown}")
    if not args.output and not args.markdown:
        out(markdown.rstrip("\n"))


def _cmd_check(args: argparse.Namespace, out: _Out) -> int:
    def progress(result: Dict[str, Any]) -> None:
        status = "ok  " if result["ok"] else "FAIL"
        out(
            f"{status} seed={result['seed']} label={result['label']} "
            f"({result['events']} events, {result['deliveries']} deliveries)"
        )

    doc = check_sweep(
        args.iterations,
        delivery_tier=args.tier,
        causal_order=args.causal,
        procs=args.procs,
        progress=progress,
    )
    _write_outputs(doc, check_markdown(doc), args, out)
    summary = doc["summary"]
    if summary["failed"]:
        first = next(r for r in doc["results"] if not r["ok"])
        out(
            f"{summary['failed']}/{summary['total']} seed(s) FAILED; "
            f"replay with: {replay_command(first)}"
        )
        return 1
    out(f"all {summary['total']} seed(s) passed every oracle")
    return 0


def _cmd_lab(args: argparse.Namespace, out: _Out) -> int:
    def progress(result: Dict[str, Any]) -> None:
        row = result["row"]
        out(
            f"{result['scenario']} / {row['policy']}: "
            f"{row['plan_pushes']} pushes, {row['migrations']} migrations, "
            f"{row['spawns']} spawns, "
            f"{row['sla_violation_seconds']:.1f}s in SLA violation"
        )

    doc = lab_sweep(
        [SPECS[name] for name in args.scenario or LAB_SPECS],
        seed=args.seed,
        policies=args.policies,
        procs=args.procs,
        progress=progress,
    )
    markdown = "\n".join(report_markdown(r) for r in doc["scenarios"].values())
    _write_outputs(doc, markdown, args, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Multiprocess sweeps over check soaks and "
        "policy-lab comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--procs", type=int, default=1,
                       help="worker processes (default: 1 = in-process)")
        p.add_argument("--output", default="",
                       help="write the merged JSON report to this file")
        p.add_argument("--markdown", default="",
                       help="write the markdown report to this file")

    check = sub.add_parser("check", help="soak generated check seeds")
    check.add_argument("--iterations", type=int, default=50,
                       help="seeds 0..N-1 to soak (default: 50)")
    check.add_argument("--tier", choices=DELIVERY_TIERS, default=None,
                       help="pin the delivery tier instead of sampling it")
    check.add_argument("--causal", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="pin causal-order mode instead of sampling it")
    common(check)
    check.set_defaults(func=_cmd_check)

    lab = sub.add_parser("lab", help="run lab scenarios live under each policy")
    lab.add_argument("--scenario", action="append", choices=sorted(SPECS),
                     default=None,
                     help="run spec to compare on (repeatable; default: "
                     + ", ".join(LAB_SPECS) + ")")
    lab.add_argument("--seed", type=int, default=0)
    lab.add_argument("--policies", type=policy_names, default=(),
                     help="comma-separated policy names (default: all)")
    common(lab)
    lab.set_defaults(func=_cmd_lab)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace, _Out], int] = args.func
    return handler(args, lambda line: print(line, file=sys.stdout))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
