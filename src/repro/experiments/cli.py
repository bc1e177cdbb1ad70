"""Command-line front end for the experiment harness.

Regenerate any of the paper's figures from a shell::

    python -m repro.experiments fig4a
    python -m repro.experiments fig4b --levels 100 300 500
    python -m repro.experiments fig5  --players 400 --seed 7
    python -m repro.experiments fig5  --paper-scale        # 1200 players
    python -m repro.experiments fig7
    python -m repro.experiments headline
    python -m repro.experiments chaos --smoke --max-recovery-s 30

Each subcommand prints the same table the corresponding benchmark prints,
so results can be regenerated without pytest: ``fig5`` / ``headline`` /
``fig7`` and ``benchmarks/test_bench_fig{5,6,7}.py`` run the same entries of
:data:`repro.experiments.run.SPECS` (``--paper-scale`` its ``-paper`` twin).

Every figure subcommand also accepts ``--trace PATH``: the run is then
executed with the flight recorder attached and a JSONL trace written to
PATH, ready for ``python -m repro.obs summary PATH``.  Tracing does not
change the simulation -- the printed tables are byte-identical with and
without it.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.config import DELIVERY_TIERS
from repro.experiments import chaos, experiment1, report
from repro.experiments.run import SPECS, RunSpec, run, with_policy
from repro.obs.export import dump_tracer
from repro.obs.profile import SimProfiler, render_profile
from repro.obs.sink import StreamingJsonlSink
from repro.obs.trace import Tracer

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a flight-recorder trace of the run to a JSONL file "
        "(inspect it with: python -m repro.obs summary PATH)",
    )
    parser.add_argument(
        "--stream-trace",
        action="store_true",
        help="write the trace incrementally through a bounded-memory "
        "streaming sink instead of buffering every event in RAM "
        "(requires --trace; output is byte-identical)",
    )
    parser.add_argument(
        "--trace-gzip",
        action="store_true",
        help="gzip-compress the streamed trace (requires --stream-trace)",
    )
    parser.add_argument(
        "--trace-rotate",
        type=int,
        metavar="N",
        default=None,
        help="rotate the streamed trace into PATH, PATH.1, ... every N "
        "events (requires --stream-trace)",
    )
    parser.add_argument(
        "--sim-profile",
        action="store_true",
        help="attribute executed events and virtual time per subsystem "
        "with the deterministic sim-profiler; prints a ranking and, with "
        "--trace, embeds the profile in the trace trailer",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log progress to stderr while the simulation runs",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Dynamoth paper's evaluation figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("fig4a", "fig4b"):
        p = sub.add_parser(name, help=f"Experiment 1 ({name})")
        p.add_argument(
            "--levels",
            type=int,
            nargs="+",
            default=list(experiment1.DEFAULT_LEVELS),
            help="subscriber/publisher counts to sweep",
        )
        p.add_argument("--measure-s", type=float, default=10.0)
        _add_common(p)

    p = sub.add_parser("fig5", help="Experiment 2 (Figs 5a/5b/5c + Fig 6)")
    p.add_argument("--players", type=int, default=None, help="max player count")
    p.add_argument("--paper-scale", action="store_true", help="run the full 1200-player setup")
    p.add_argument("--dynamoth-only", action="store_true", help="skip the consistent-hashing run")
    _add_common(p)

    p = sub.add_parser("headline", help="the '60%% more clients' comparison")
    p.add_argument("--paper-scale", action="store_true")
    _add_common(p)

    p = sub.add_parser("fig7", help="Experiment 3 (elasticity)")
    p.add_argument("--paper-scale", action="store_true")
    _add_common(p)

    p = sub.add_parser(
        "chaos", help="broker-crash recovery scenario (repro.faults)"
    )
    p.add_argument("--smoke", action="store_true", help="small fast preset (CI)")
    p.add_argument("--players", type=int, default=None)
    p.add_argument("--crash-at", type=float, default=None, help="crash time, seconds")
    p.add_argument(
        "--restart-after",
        type=float,
        default=None,
        help="restart the victim this many seconds after the crash",
    )
    p.add_argument(
        "--max-recovery-s",
        type=float,
        default=None,
        help="exit 1 unless every affected subscriber delivers again "
        "within this bound after the crash",
    )
    p.add_argument(
        "--tier",
        choices=DELIVERY_TIERS,
        default=None,
        help="delivery guarantee for the run (default: at_most_once)",
    )
    _add_common(p)

    return parser


def _figure_spec(figure: str, args) -> RunSpec:
    spec = SPECS[f"{figure}-paper" if args.paper_scale else figure]
    if getattr(args, "players", None):
        end_t, __ = spec.population[-1]
        spec = replace(spec, population=spec.population[:-1] + ((end_t, args.players),))
    return spec


def _make_tracer(args) -> Optional[Tracer]:
    trace = args.trace
    stream = args.stream_trace
    compress = args.trace_gzip
    rotate = args.trace_rotate
    profile = args.sim_profile
    if stream and not trace:
        raise SystemExit("error: --stream-trace requires --trace PATH")
    if (compress or rotate is not None) and not stream:
        raise SystemExit(
            "error: --trace-gzip/--trace-rotate require --stream-trace"
        )
    if not trace and not profile:
        return None
    profiler = SimProfiler() if profile else None
    if trace and stream:
        try:
            sink = StreamingJsonlSink(
                trace, compress=compress, rotate_events=rotate
            )
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace file: {exc}")
        return Tracer(sink=sink, profiler=profiler)
    if trace:
        # Fail before the (long) simulation, not at dump time afterwards.
        try:
            with open(trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            raise SystemExit(f"error: cannot write trace file: {exc}")
    return Tracer(profiler=profiler)


def _dump(tracer: Optional[Tracer], args) -> None:
    if tracer is None:
        return
    if args.trace:
        sink = tracer.sink
        if sink is not None:
            count = sink.finalize(tracer)
        else:
            count = dump_tracer(tracer, args.trace)
        logger.info("wrote %d trace events to %s", count, args.trace)
    if tracer.profiler is not None:
        print()
        print(render_profile(tracer.profiler.snapshot()))


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    tracer = _make_tracer(args)
    try:
        return _run_command(args, tracer)
    finally:
        # A run that raised never reached ``_dump``: flush the streamed
        # tail (no trailer -- the run did not finish) so the events leading
        # up to the failure are on disk and a gzip member is not cut short.
        # After a finished run the sink is already closed and this is a no-op.
        if tracer is not None and tracer.sink is not None:
            tracer.sink.close()


def _run_command(args, tracer: Optional[Tracer]) -> int:
    if args.command == "fig4a":
        result = experiment1.run_fig4a(
            args.levels, seed=args.seed, measure_s=args.measure_s, tracer=tracer
        )
        _dump(tracer, args)
        print(report.render_figure4(result, "Figure 4a -- all-publishers replication"))
    elif args.command == "fig4b":
        result = experiment1.run_fig4b(
            args.levels, seed=args.seed, measure_s=args.measure_s, tracer=tracer
        )
        _dump(tracer, args)
        print(report.render_figure4(result, "Figure 4b -- all-subscribers replication"))
    elif args.command in ("fig5", "headline"):
        spec = _figure_spec("fig5", args)
        logger.info("running Dynamoth (%d players max)...", spec.population[-1][1])
        # The trace follows the Dynamoth run; the consistent-hashing
        # comparison run is untraced.
        dynamoth = run(spec, args.seed, tracer=tracer)
        _dump(tracer, args)
        hashing = None
        if not getattr(args, "dynamoth_only", False):
            logger.info("running consistent hashing...")
            hashing = run(with_policy(spec, "consistent_hashing"), args.seed)
        if args.command == "fig5":
            print(report.render_figure5(dynamoth, hashing))
            print()
            print(report.render_figure6(dynamoth))
            if hashing is not None:
                print()
        if hashing is not None:
            print(report.render_headline(dynamoth, hashing))
    elif args.command == "fig7":
        logger.info("running elasticity scenario...")
        result = run(_figure_spec("fig7", args), args.seed, tracer=tracer)
        _dump(tracer, args)
        print(report.render_figure7(result))
    elif args.command == "chaos":
        config = (
            chaos.ChaosScenarioConfig.smoke()
            if args.smoke
            else chaos.ChaosScenarioConfig()
        )
        overrides = {"seed": args.seed}
        if args.players is not None:
            overrides["players"] = args.players
        if args.crash_at is not None:
            overrides["crash_at_s"] = args.crash_at
        if args.restart_after is not None:
            overrides["restart_after_s"] = args.restart_after
        if args.tier is not None:
            overrides["delivery_tier"] = args.tier
        config = replace(config, **overrides)
        logger.info(
            "running chaos scenario (%d players, crash at t=%.1fs)...",
            config.players,
            config.crash_at_s,
        )
        result = chaos.run_chaos(config, tracer=tracer)
        # run_chaos always traces internally; dump/profile only when the
        # user asked for a tracer of their own.
        _dump(tracer, args)
        print(chaos.render_chaos(result))
        if args.max_recovery_s is not None and not result.within_bound(
            args.max_recovery_s
        ):
            print(
                f"FAIL: recovery bound {args.max_recovery_s:.1f}s exceeded "
                f"(recovery_s={result.recovery_s})",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
