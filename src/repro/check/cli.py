"""``python -m repro.check``: run, replay, and shrink property scenarios.

Modes:

* default -- run ``--iterations`` generated scenarios (seeds 0..N-1),
  stop at the first violation, shrink it and print the minimal
  reproducer (exit 1), or report all-clear (exit 0);
* ``--seed S`` -- run exactly one generated scenario, shrinking on
  violation; this is the replay command printed with every failure;
* ``--scenario FILE`` -- run a scenario from its JSON (e.g. a minimized
  reproducer artifact) without regenerating from the seed; a FILE that is
  not a scenario is one ``error: FILE: ...`` line on stderr and exit 2.

``--break-repair-replay`` flips the dispatcher's test-only kill switch so
the suite's own detection power can be demonstrated end to end;
``--break-reliable-replay`` does the same for the reliable tier's gap
replay (the gap-free oracle must catch it).  ``--tier`` and
``--causal``/``--no-causal`` pin the delivery tier and causal mode
instead of letting the generator sample them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from repro.check.generate import generate_scenario
from repro.check.oracles import Violation, check_result
from repro.check.scenario import Scenario, ScenarioFormatError, run_scenario
from repro.check.scenario import with_break, with_reliable_break
from repro.check.shrink import shrink
from repro.core.config import DELIVERY_TIERS
from repro.obs.sink import StreamingJsonlSink
from repro.obs.trace import Tracer


def _report_violations(scenario: Scenario, violations: Sequence[Violation]) -> None:
    print(f"FAIL seed={scenario.seed} label={scenario.label}: "
          f"{len(violations)} violation(s)")
    for violation in violations:
        print(f"  {violation}")


def _write_artifact(directory: Path, scenario: Scenario) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"seed{scenario.seed}-minimized.json"
    path.write_text(scenario.to_json() + "\n", encoding="utf-8")
    return path


def _handle_failure(
    scenario: Scenario,
    violations: Sequence[Violation],
    args: argparse.Namespace,
) -> int:
    _report_violations(scenario, violations)
    minimal = scenario
    if not args.no_shrink:
        minimal, violations, runs = shrink(
            scenario, violations, max_runs=args.shrink_budget
        )
        print(f"\nshrunk in {runs} candidate run(s):")
        _report_violations(minimal, violations)
    print("\nminimal scenario JSON:")
    print(minimal.to_json())
    if args.artifacts is not None:
        path = _write_artifact(args.artifacts, minimal)
        print(f"\nreproducer written to {path}")
        print(f"replay file : python -m repro.check --scenario {path}")
    extra = " --break-repair-replay" if scenario.break_repair_replay else ""
    if scenario.break_reliable_replay:
        extra += " --break-reliable-replay"
    # Pin the tier/causal axis explicitly: the replay must not depend on
    # whether the original run sampled or overrode them.
    extra += f" --tier {scenario.delivery_tier}"
    extra += " --causal" if scenario.causal_order else " --no-causal"
    print(f"replay seed : python -m repro.check --seed {scenario.seed}{extra}")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Property-test the Dynamoth reproduction with "
        "randomized fault scenarios and invariant oracles.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly this generated scenario seed")
    parser.add_argument("--iterations", type=int, default=20,
                        help="number of seeds to sweep when no --seed/"
                             "--scenario is given (default: 20)")
    parser.add_argument("--scenario", type=Path, default=None,
                        help="run a scenario from its JSON file")
    parser.add_argument("--break-repair-replay", action="store_true",
                        help="disable the dispatcher's repair-buffer replay "
                             "(test-only fault to demo oracle detection)")
    parser.add_argument("--break-reliable-replay", action="store_true",
                        help="disable the reliable tier's gap replay "
                             "(test-only fault: the gap-free oracle must "
                             "catch it)")
    parser.add_argument("--tier", choices=DELIVERY_TIERS, default=None,
                        help="pin the delivery tier instead of sampling it")
    parser.add_argument("--causal", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="pin causal-order mode on (--causal) or off "
                             "(--no-causal) instead of sampling it")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report the first violation without shrinking")
    parser.add_argument("--shrink-budget", type=int, default=32,
                        help="max candidate runs during shrinking (default: 32)")
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="directory to write minimized reproducer JSON to")
    parser.add_argument("--trace", type=Path, default=None,
                        help="stream each run's trace to this JSONL file "
                             "(overwritten per scenario, so it holds the "
                             "failing -- or last -- run)")
    args = parser.parse_args(argv)

    if args.scenario is not None:
        try:
            text = args.scenario.read_text(encoding="utf-8")
            scenario = Scenario.from_json(text, str(args.scenario))
        except (OSError, UnicodeDecodeError, ScenarioFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.break_repair_replay:
            scenario = with_break(scenario)
        if args.break_reliable_replay:
            scenario = with_reliable_break(scenario)
        if args.tier is not None:
            scenario = replace(scenario, delivery_tier=args.tier)
        if args.causal is not None:
            scenario = replace(scenario, causal_order=args.causal)
        scenarios = [scenario]
    else:
        seeds = [args.seed] if args.seed is not None else range(args.iterations)
        scenarios = [
            generate_scenario(
                seed,
                break_repair_replay=args.break_repair_replay,
                break_reliable_replay=args.break_reliable_replay,
                delivery_tier=args.tier,
                causal_order=args.causal,
            )
            for seed in seeds
        ]

    for scenario in scenarios:
        if args.trace is None:
            result = run_scenario(scenario)
        else:
            # Tee mode: stream to disk while also buffering, because the
            # oracles read result.tracer.events after the run.  Should the
            # scenario raise, leaving the ``with`` flushes the events that
            # led up to it (no trailer); after finalize it is a no-op.
            with StreamingJsonlSink(str(args.trace)) as sink:
                tracer = Tracer(sink=sink, keep_events=True)
                result = run_scenario(scenario, tracer=tracer)
                sink.finalize(tracer)
        violations = check_result(result)
        if violations:
            return _handle_failure(scenario, violations, args)
        print(f"ok   seed={scenario.seed} label={scenario.label} "
              f"({len(result.tracer.events)} events, "
              f"{len(result.ledger.deliveries)} deliveries)")
    print(f"\nall {len(scenarios)} scenario(s) passed every oracle")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
