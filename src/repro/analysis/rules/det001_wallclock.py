"""DET001: no wall-clock reads in simulation code."""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.analysis.rules.base import Finding, Rule, RuleContext

#: Canonical dotted names that read the host clock.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    """Simulated components must take time from the kernel clock
    (``sim.now``), never from the host.  A wall-clock read anywhere on a
    simulated code path makes results depend on machine speed and breaks
    the byte-identical replays that the chaos, property-check and perf
    subsystems rely on.

    Banned: ``time.time/monotonic/perf_counter/process_time`` (and their
    ``_ns`` variants), ``time.localtime/gmtime/strftime``,
    ``datetime.datetime.now/utcnow/today`` and ``datetime.date.today``.

    No path is exempt: nothing under ``src/repro`` reads host time, and
    host-time measurement lives in ``benchmarks/ledger/`` and nowhere
    else.  A line that must read the host clock says so in plain sight
    with ``# repro: allow[DET001]``.
    """

    ID = "DET001"
    SUMMARY = "wall-clock read on a simulated code path"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = imports.resolve_call(node.func)
            if name in WALL_CLOCK_CALLS:
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read `{name}()`; simulated time must come "
                    "from the kernel clock (`sim.now`)",
                )
