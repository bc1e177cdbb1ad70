"""Trace-divergence bisector: localize the first differing event.

When CI reports "sweep report not byte-identical" the symptom is one
``trace_sha256`` mismatch over a file with hundreds of thousands of
events.  This module turns that into a one-command localization::

    python -m repro.analysis bisect left.jsonl right.jsonl

The algorithm is the classic prefix-hash bisection, streamed so neither
trace is ever held in memory:

1. **Checkpoint pass** -- stream both files in lockstep, folding each
   event line into a running SHA-256 and recording the running digest at
   every ``chunk`` boundary (default 4096 events).  Prefix digests are
   monotone: once the inputs diverge, every later checkpoint differs.
2. **Binary search** over the checkpoint arrays for the first differing
   chunk -- O(log n) comparisons over O(n / chunk) digests.
3. **Rescan** just that chunk, comparing raw lines, for the exact event
   index.

The divergent event is then decoded (type tag + virtual time ``t``) and
attributed to its emitting subsystem via the static table below, which
mirrors where each event class is emitted in the source tree.  Traces
may be plain or gzip JSONL (the ``repro.obs.export`` format); the
``trace_header`` line is skipped on both sides so schema-identical
bodies compare clean even across header tweaks.  A gzip stream cut short
(a run killed mid-write) or not gzip at all raises :class:`TraceReadError`
naming the file and line -- an unreadable input, never a divergence.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple

#: event type tag -> emitting subsystem (kept in sync with the emit
#: sites in src/; the facts unit test cross-checks a sample).
SUBSYSTEMS: Dict[str, str] = {
    "publish": "client",
    "delivery": "client",
    "arrival": "client",
    "subscribe": "client",
    "unsubscribe": "client",
    "plan_miss": "client",
    "client_failover": "client",
    "client_reconnect": "client",
    "causal_timeout": "client",
    "fanout": "broker",
    "server_subscribe": "broker",
    "replay": "broker",
    "gap_unrecoverable": "broker",
    "load_report": "balancer",
    "load_snapshot": "balancer",
    "plan_generated": "balancer",
    "plan_pushed": "balancer",
    "migration_start": "balancer",
    "migration_settled": "balancer",
    "spawn_request": "balancer",
    "server_ready": "balancer",
    "decommission": "balancer",
    "server_suspect": "balancer",
    "server_failure_confirmed": "balancer",
    "server_resurrected": "balancer",
    "plan_repair_start": "balancer",
    "plan_repair_done": "balancer",
    "plan_applied": "dispatcher",
    "switch_notice": "dispatcher",
    "server_crash": "cluster",
    "server_restart": "cluster",
    "lla_stall": "cluster",
    "partition": "faults",
    "partition_healed": "faults",
    "link_fault": "faults",
    "sla_violation_start": "sla-monitor",
    "sla_violation_end": "sla-monitor",
    "sla_window": "sla-monitor",
    "metrics": "obs",
}


@dataclass(frozen=True)
class Divergence:
    """The first point where two traces disagree."""

    #: 0-based event index (header line excluded)
    index: int
    #: raw JSONL line on each side; ``None`` where a trace ended early
    left: Optional[str]
    right: Optional[str]
    #: decoded from whichever side still has an event
    event_type: Optional[str]
    t: Optional[float]
    subsystem: str
    #: total event counts (diagnostic context for truncation cases)
    left_total: int
    right_total: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "event_type": self.event_type,
            "t": self.t,
            "subsystem": self.subsystem,
            "left": self.left,
            "right": self.right,
            "left_total": self.left_total,
            "right_total": self.right_total,
        }


def _open_trace(path: Path) -> IO[bytes]:
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


class TraceReadError(ValueError):
    """A trace file that cannot be read to its end (``path:line: ...``)."""


def _event_lines(path: Path) -> Iterator[bytes]:
    """Event lines of one trace, header skipped, newline stripped."""
    line_no = 0
    first = True
    with _open_trace(path) as handle:
        try:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.rstrip(b"\n")
                if not line:
                    continue
                if first:
                    first = False
                    if b'"trace_header"' in line:
                        continue
                yield line
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise TraceReadError(
                f"{path}:{line_no + 1}: malformed gzip stream: {exc}"
            ) from exc


def _checkpoints(path: Path, chunk: int) -> Tuple[List[str], int]:
    """Running prefix digests at each chunk boundary, plus event count."""
    digest = hashlib.sha256()
    marks: List[str] = []
    count = 0
    for line in _event_lines(path):
        digest.update(line)
        digest.update(b"\n")
        count += 1
        if count % chunk == 0:
            marks.append(digest.hexdigest())
    marks.append(digest.hexdigest())  # final partial chunk
    return marks, count


def _first_diff_chunk(left: List[str], right: List[str]) -> int:
    """Binary search for the first checkpoint index where digests differ.

    Prefix digests are monotone (equal up to the divergence, unequal
    after), which is what makes bisection valid.  Returns ``len`` when
    every shared checkpoint agrees.
    """
    shared = min(len(left), len(right))
    lo, hi = 0, shared
    while lo < hi:
        mid = (lo + hi) // 2
        if left[mid] == right[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bisect_traces(
    left_path: Path, right_path: Path, chunk: int = 4096
) -> Optional[Divergence]:
    """First diverging event between two traces, or ``None`` if identical."""
    left_marks, left_total = _checkpoints(left_path, chunk)
    right_marks, right_total = _checkpoints(right_path, chunk)
    if left_marks == right_marks and left_total == right_total:
        return None
    first_chunk = _first_diff_chunk(left_marks, right_marks)
    start = first_chunk * chunk
    # Rescan only the suspect chunk (every earlier chunk hashed equal).
    left_lines = list(_slice_lines(left_path, start, chunk))
    right_lines = list(_slice_lines(right_path, start, chunk))
    index = start
    for offset in range(max(len(left_lines), len(right_lines))):
        left_line = left_lines[offset] if offset < len(left_lines) else None
        right_line = right_lines[offset] if offset < len(right_lines) else None
        if left_line != right_line:
            index = start + offset
            return _decode(
                index, left_line, right_line, left_total, right_total
            )
    # Digests differed only past the shared checkpoints: pure truncation.
    index = min(left_total, right_total)
    return _decode(index, None, None, left_total, right_total)


def _slice_lines(path: Path, start: int, count: int) -> Iterator[str]:
    for position, line in enumerate(_event_lines(path)):
        if position >= start + count:
            return
        if position >= start:
            yield line.decode("utf-8", errors="replace")


def _decode(
    index: int,
    left: Optional[str],
    right: Optional[str],
    left_total: int,
    right_total: int,
) -> Divergence:
    event_type: Optional[str] = None
    t: Optional[float] = None
    for line in (left, right):
        if line is None:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict):
            raw_type = payload.get("type")
            event_type = raw_type if isinstance(raw_type, str) else None
            raw_t = payload.get("t")
            t = float(raw_t) if isinstance(raw_t, (int, float)) else None
            break
    subsystem = SUBSYSTEMS.get(event_type or "", "unknown")
    if left is None and right is None:
        subsystem = "truncation"
    return Divergence(
        index=index,
        left=left,
        right=right,
        event_type=event_type,
        t=t,
        subsystem=subsystem,
        left_total=left_total,
        right_total=right_total,
    )


def format_divergence(divergence: Divergence) -> str:
    """Human-readable localization report (the CLI text output)."""
    lines = [
        f"first divergence at event {divergence.index} "
        f"(left has {divergence.left_total}, right has "
        f"{divergence.right_total} events)",
        f"  event type: {divergence.event_type or '(unparseable/truncated)'}",
        f"  virtual time t: "
        f"{divergence.t if divergence.t is not None else '(unknown)'}",
        f"  subsystem: {divergence.subsystem}",
    ]
    if divergence.left is not None:
        lines.append(f"  left:  {divergence.left}")
    else:
        lines.append("  left:  (no event -- trace ended)")
    if divergence.right is not None:
        lines.append(f"  right: {divergence.right}")
    else:
        lines.append("  right: (no event -- trace ended)")
    return "\n".join(lines)
