"""Plain-text rendering of experiment results.

Produces the tables and ASCII series that EXPERIMENTS.md and the benchmark
harness print -- one renderer per paper figure, so a bench run shows the
same rows/curves the paper reports.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.experiments.experiment1 import Experiment1Result
from repro.experiments.run import RunRecord


def _fmt_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1000:8.1f}"


def table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render a fixed-width text table."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse ASCII sparkline (resampled to ``width`` columns)."""
    if not values:
        return ""
    marks = " .:-=+*#%@"
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(marks[int((v - lo) / span * (len(marks) - 1))] for v in values)


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def render_figure4(result: Experiment1Result, title: str) -> str:
    """Figure 4a/4b as a table: latency + delivery rate per level."""
    rows = []
    non_rep = {p.clients: p for p in result.series(False)}
    rep = {p.clients: p for p in result.series(True)}
    for level in sorted(set(non_rep) | set(rep)):
        a, b = non_rep.get(level), rep.get(level)
        rows.append(
            [
                level,
                _fmt_ms(a.mean_latency_s if a else None),
                f"{a.delivery_rate:.2f}" if a else "-",
                _fmt_ms(b.mean_latency_s if b else None),
                f"{b.delivery_rate:.2f}" if b else "-",
            ]
        )
    headers = [
        "clients",
        "no-rep ms",
        "no-rep rate",
        "3-rep ms",
        "3-rep rate",
    ]
    return f"{title}\n" + table(headers, rows)


# ----------------------------------------------------------------------
# Figures 5 & 6
# ----------------------------------------------------------------------
def render_figure5(dynamoth: RunRecord, hashing: Optional[RunRecord] = None) -> str:
    """Figures 5a/5b/5c as aligned per-interval rows."""
    out: List[str] = ["Figure 5 -- scalability over time"]
    rt_dyn = dict(dynamoth.response_series())
    pop = {int(t): v for t, v in dynamoth.population_series()}
    srv_dyn = {int(t): v for t, v in dynamoth.server_series()}
    msg_dyn = {int(t): v for t, v in dynamoth.messages_series()}
    rt_ch = dict(hashing.response_series()) if hashing else {}
    srv_ch = {int(t): v for t, v in hashing.server_series()} if hashing else {}

    headers = ["t(s)", "players", "dyn msgs/s", "dyn srv", "dyn rt(ms)"]
    if hashing:
        headers += ["ch srv", "ch rt(ms)"]
    rows = []
    horizon = int(dynamoth.end_t)
    step = max(10, horizon // 25)
    for t in range(0, horizon + 1, step):
        row = [
            t,
            int(pop.get(t, 0)),
            int(msg_dyn.get(t, 0)),
            int(srv_dyn.get(t, 0)),
            _fmt_ms(rt_dyn.get(t)),
        ]
        if hashing:
            row += [int(srv_ch.get(t, 0)), _fmt_ms(rt_ch.get(t))]
        rows.append(row)
    out.append(table(headers, rows))
    out.append(
        "dynamoth rebalances at: "
        + ", ".join(f"{t:.0f}s" for t in dynamoth.rebalance_times)
    )
    if hashing:
        out.append(
            "consistent-hashing rebalances at: "
            + ", ".join(f"{t:.0f}s" for t in hashing.rebalance_times)
        )
    return "\n".join(out)


def render_figure6(result: RunRecord) -> str:
    """Figure 6: average and busiest load ratio over time."""
    series = result.load_ratio_series()
    step = max(1, len(series) // 25)
    rows = [
        [f"{t:.0f}", f"{avg:.2f}", f"{busiest:.2f}"]
        for t, avg, busiest in series[::step]
    ]
    out = [
        "Figure 6 -- pub/sub server load ratios (Dynamoth)",
        table(["t(s)", "avg LR", "max LR"], rows),
        "avg LR sparkline:  " + sparkline([a for __, a, __ in series]),
        "max LR sparkline:  " + sparkline([m for __, __, m in series]),
    ]
    return "\n".join(out)


def headline_gain(dynamoth: RunRecord, hashing: RunRecord) -> float:
    """Relative player-capacity gain of Dynamoth over consistent hashing
    (the paper reports ~0.60)."""
    ch = hashing.max_sustainable_players()
    return (dynamoth.max_sustainable_players() - ch) / ch if ch else float("inf")


def render_headline(dynamoth: RunRecord, hashing: RunRecord) -> str:
    """The paper's headline: sustainable players, Dynamoth vs CH."""
    rows = [
        [name, record.max_sustainable_players(), record.final_server_count]
        for name, record in (("dynamoth", dynamoth), ("consistent-hashing", hashing))
    ]
    gain = headline_gain(dynamoth, hashing)
    return (
        table(["approach", "max players (<150ms)", "servers used"], rows)
        + f"\nDynamoth sustains {gain * 100:.0f}% more players (paper: ~60%)"
    )


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
def render_figure7(result: RunRecord) -> str:
    """Figure 7a/7b: population, servers, messages, response time."""
    pop = {int(t): v for t, v in result.population_series()}
    srv = {int(t): v for t, v in result.server_series()}
    msg = {int(t): v for t, v in result.messages_series()}
    rt = dict(result.response_series())
    horizon = int(result.end_t)
    step = max(10, horizon // 25)
    rows = [
        [
            t,
            int(pop.get(t, 0)),
            int(srv.get(t, 0)),
            int(msg.get(t, 0)),
            _fmt_ms(rt.get(t)),
        ]
        for t in range(0, horizon + 1, step)
    ]
    out = [
        "Figure 7 -- elasticity under a varying number of players",
        table(["t(s)", "players", "servers", "msgs/s", "rt(ms)"], rows),
        "rebalances at: " + ", ".join(f"{t:.0f}s" for t in result.rebalance_times),
        "servers sparkline: "
        + sparkline([v for __, v in result.server_series()]),
    ]
    return "\n".join(out)
