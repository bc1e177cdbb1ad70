"""Deterministic sim-profiler: attribute events and virtual time, not wall time.

The ROADMAP's profile-guided kernel work needs to know *where* simulated
runs spend their events, but a wall-clock profiler on the hot path would
(a) slow the run down and (b) perturb nothing yet tempt everyone to feed
timings back into decisions, breaking byte-identical replays.  The
:class:`SimProfiler` sidesteps both: it records only **event counts** and
**virtual-time deltas**, keyed by subsystem and callback site, so a
profiled run is byte-identical to an unprofiled one and the profile itself
is deterministic across machines.

Hook points (all opt-in, all no-cost when absent):

* the kernel calls :meth:`record_event` after executing each scheduled
  callback (``sim.profiler`` is set by ``Tracer.attach_kernel``); a
  message delivery is booked to the receiving actor's ``receive``;
* the actor message tap calls :meth:`count_message` per transport send;
* subsystems (broker fan-out, LLA reporting) call :meth:`count` to
  attribute domain work that doesn't map 1:1 to scheduled events.

``python -m repro.obs profile trace.jsonl`` renders the snapshot embedded
in a trace (a ``profile`` event in the trailer) as a ranked hot-path view.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Site key: (subsystem, qualified callback name).
SiteKey = Tuple[str, str]

SNAPSHOT_VERSION = 1


def classify_callable(fn: Callable[..., Any]) -> SiteKey:
    """Map a scheduled callable to ``(subsystem, site)``.

    Subsystem is the second package component of the defining module
    (``repro.core.dispatcher`` -> ``core``); site is the qualified name
    (``Dispatcher._expire_watch``).
    """
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", "") or ""
    qualname = getattr(func, "__qualname__", None) or repr(func)
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        subsystem = parts[1]
    elif parts and parts[0]:
        subsystem = parts[0]
    else:
        subsystem = "unknown"
    return subsystem, qualname


class SimProfiler:
    """Accumulates per-site event counts and virtual-time deltas.

    The virtual-time delta of an event is the sim-clock advance *into*
    that event, so per-site ``sim_s`` answers "how much simulated time
    passed while this subsystem's callbacks were next in line" -- a
    deterministic analogue of inclusive profiler time.
    """

    __slots__ = ("_event_stats", "_site_cache", "_messages", "_counts", "_last_t")

    def __init__(self) -> None:
        self._event_stats: Dict[SiteKey, List[float]] = {}
        # Keyed on the underlying function object (bound methods are
        # recreated per schedule; their __func__ is stable per class).
        self._site_cache: Dict[Any, SiteKey] = {}
        self._messages: Dict[str, List[float]] = {}
        self._counts: Dict[SiteKey, float] = {}
        self._last_t = 0.0

    # ------------------------------------------------------------------
    # Hot-path hooks
    # ------------------------------------------------------------------
    def record_event(self, fn: Callable[..., Any], now: float, args: Sequence[Any]) -> None:
        """Kernel hook: one executed event ``fn(*args)`` at sim time ``now``."""
        if type(fn) is methodcaller:
            # A message delivery: the transport makes one methodcaller per
            # send, so the site is what it called -- the destination
            # actor's ``receive`` (the dead letter, if it was down).
            fn = args[0].receive
        func = getattr(fn, "__func__", fn)
        site = self._site_cache.get(func)
        if site is None:
            site = self._site_cache[func] = classify_callable(fn)
        stats = self._event_stats.get(site)
        if stats is None:
            stats = self._event_stats[site] = [0, 0.0]
        stats[0] += 1
        stats[1] += now - self._last_t
        self._last_t = now

    def count_message(self, message_type: str, size_bytes: int) -> None:
        """Transport hook: one actor-to-actor message send."""
        entry = self._messages.get(message_type)
        if entry is None:
            entry = self._messages[message_type] = [0, 0]
        entry[0] += 1
        entry[1] += size_bytes

    def count(self, subsystem: str, site: str, amount: float = 1.0) -> None:
        """Domain hook: attribute work not tied 1:1 to a scheduled event."""
        key = (subsystem, site)
        self._counts[key] = self._counts.get(key, 0.0) + amount

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able, deterministically ordered profile snapshot."""
        events = {
            f"{subsystem}:{site}": {"count": int(stats[0]), "sim_s": stats[1]}
            for (subsystem, site), stats in sorted(self._event_stats.items())
        }
        return {
            "version": SNAPSHOT_VERSION,
            "total_events": int(sum(s[0] for s in self._event_stats.values())),
            "total_sim_s": sum(s[1] for s in self._event_stats.values()),
            "events": events,
            "messages": {
                name: {"count": int(entry[0]), "bytes": int(entry[1])}
                for name, entry in sorted(self._messages.items())
            },
            "counters": {
                f"{subsystem}:{site}": value
                for (subsystem, site), value in sorted(self._counts.items())
            },
        }


def render_profile(snapshot: Dict[str, Any], top: int = 20) -> str:
    """Rank hot paths from a profiler snapshot (CLI + experiment output)."""
    lines: List[str] = []
    out = lines.append
    total_events = snapshot.get("total_events", 0) or 0
    total_sim = snapshot.get("total_sim_s", 0.0) or 0.0
    out("sim-profiler hot paths")
    out(f"  total events: {total_events}   total sim time: {total_sim:.3f}s")

    events: Dict[str, Dict[str, Any]] = snapshot.get("events", {})
    if events:
        # Aggregate per subsystem first, then rank sites.
        per_subsystem: Dict[str, List[float]] = {}
        for key, stats in events.items():
            subsystem = key.split(":", 1)[0]
            agg = per_subsystem.setdefault(subsystem, [0, 0.0])
            agg[0] += stats["count"]
            agg[1] += stats["sim_s"]
        out("")
        out("  by subsystem:")
        ranked_subsystems = sorted(
            per_subsystem.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        for subsystem, (count, sim_s) in ranked_subsystems:
            share = 100.0 * count / total_events if total_events else 0.0
            out(
                f"    {subsystem:<12} {int(count):>10} events ({share:5.1f}%)"
                f"  sim {sim_s:>9.3f}s"
            )
        out("")
        out(f"  top {min(top, len(events))} sites by events:")
        ranked_sites = sorted(
            events.items(), key=lambda kv: (-kv[1]["count"], kv[0])
        )[:top]
        for key, stats in ranked_sites:
            share = 100.0 * stats["count"] / total_events if total_events else 0.0
            out(
                f"    {key:<52} {stats['count']:>10} ({share:5.1f}%)"
                f"  sim {stats['sim_s']:>9.3f}s"
            )

    messages: Dict[str, Dict[str, Any]] = snapshot.get("messages", {})
    if messages:
        out("")
        out("  messages by type:")
        ranked_messages = sorted(
            messages.items(), key=lambda kv: (-kv[1]["count"], kv[0])
        )[:top]
        for name, entry in ranked_messages:
            out(
                f"    {name:<32} {entry['count']:>10} sends"
                f"  {entry['bytes']:>12} bytes"
            )

    counters: Dict[str, float] = snapshot.get("counters", {})
    if counters:
        out("")
        out("  domain counters:")
        for key, value in sorted(counters.items(), key=lambda kv: (-kv[1], kv[0])):
            out(f"    {key:<52} {value:>12g}")
    return "\n".join(lines)
