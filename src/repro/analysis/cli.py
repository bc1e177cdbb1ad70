"""Command-line interface: ``python -m repro.analysis ...``.

Subcommands
-----------
``check [paths...]``
    Analyze files/directories (default: ``src``).  Exit 0 when clean,
    1 when findings remain after inline suppressions, 2 on usage
    or internal errors.  ``--format=json`` emits a machine-readable
    report (the CI artifact); text output is ruff-shaped
    ``path:line:col: RULE message`` lines.  Each rule's rationale is its
    class docstring under ``repro/analysis/rules/``.

``bisect LEFT.jsonl RIGHT.jsonl`` / ``bisect --seed N``
    Localize the first diverging event between two trace files in one
    lockstep pass (exit 0: identical, 1: divergence found,
    2: a trace could not be read, e.g. a gzip stream cut short).
    With ``--seed``, run the property-check scenario twice under
    different ``PYTHONHASHSEED`` values as a hash-order divergence
    probe and bisect the resulting traces.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence, TextIO

from repro.analysis.bisect import TraceReadError, bisect_traces, format_divergence
from repro.analysis.engine import AnalysisEngine, CheckReport

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism sanitizer for the repro codebase.",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="analyze paths and report findings")
    check.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (default: text)",
    )

    bisect = sub.add_parser(
        "bisect", help="localize the first diverging event between two traces"
    )
    bisect.add_argument(
        "traces",
        nargs="*",
        metavar="TRACE",
        help="two trace JSONL files (plain or .gz) to compare",
    )
    bisect.add_argument(
        "--seed",
        type=int,
        default=None,
        help="instead of two files: run `repro.check --seed N` twice under "
        "different PYTHONHASHSEED values and bisect the traces",
    )
    bisect.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="output format (default: text)",
    )
    return parser


def find_project_root() -> Path:
    """Walk up from the working directory to the nearest pyproject.toml."""
    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def _emit_text(report: CheckReport, stream: TextIO) -> None:
    for diagnostic in report.diagnostics:
        print(diagnostic.format(), file=stream)
    print(
        f"{len(report.diagnostics)} finding(s) in "
        f"{report.files_analyzed} file(s)",
        file=stream,
    )


def _emit_json(report: CheckReport, stream: TextIO) -> None:
    payload = {
        "diagnostics": [d.to_dict() for d in report.diagnostics],
        "summary": {
            "files_analyzed": report.files_analyzed,
            "findings": len(report.diagnostics),
        },
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _cmd_check(args: argparse.Namespace) -> int:
    report = AnalysisEngine(find_project_root()).check([Path(p) for p in args.paths])
    if args.fmt == "json":
        _emit_json(report, sys.stdout)
    else:
        _emit_text(report, sys.stdout)
    return EXIT_FINDINGS if report.diagnostics else EXIT_CLEAN


def _record_seed_trace(seed: int, out: Path, hash_seed: str) -> bool:
    """Run one property-check scenario, streaming its trace to ``out``.

    ``PYTHONHASHSEED`` is varied between the two runs: a divergence
    between the resulting traces is exactly a hash-order dependence --
    the bug class the determinism suite exists to catch.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.check",
            "--seed",
            str(seed),
            "--trace",
            str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if not out.is_file():
        print(
            f"error: repro.check --seed {seed} produced no trace "
            f"(exit {proc.returncode}):\n{proc.stderr}",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_bisect(args: argparse.Namespace) -> int:
    if args.seed is not None:
        if args.traces:
            print("error: give either two trace files or --seed", file=sys.stderr)
            return EXIT_ERROR
        with tempfile.TemporaryDirectory(prefix="repro-bisect-") as tmp:
            left = Path(tmp) / "left.jsonl"
            right = Path(tmp) / "right.jsonl"
            if not _record_seed_trace(args.seed, left, "0"):
                return EXIT_ERROR
            if not _record_seed_trace(args.seed, right, "1"):
                return EXIT_ERROR
            return _emit_bisect(left, right, args)
    if len(args.traces) != 2:
        print("error: bisect needs exactly two trace files", file=sys.stderr)
        return EXIT_ERROR
    left, right = Path(args.traces[0]), Path(args.traces[1])
    for path in (left, right):
        if not path.is_file():
            print(f"error: no such trace: {path}", file=sys.stderr)
            return EXIT_ERROR
    return _emit_bisect(left, right, args)


def _emit_bisect(left: Path, right: Path, args: argparse.Namespace) -> int:
    try:
        divergence = bisect_traces(left, right)
    except TraceReadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.fmt == "json":
        payload = {
            "identical": divergence is None,
            "divergence": divergence.to_dict() if divergence else None,
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif divergence is None:
        print("traces are identical (event bodies byte-for-byte)")
    else:
        print(format_divergence(divergence))
    return EXIT_CLEAN if divergence is None else EXIT_FINDINGS


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command is None:
        parser.print_help()
        return EXIT_ERROR
    handlers = {"check": _cmd_check, "bisect": _cmd_bisect}
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return EXIT_ERROR
    except BrokenPipeError:  # e.g. `... | head` closing stdout early
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
