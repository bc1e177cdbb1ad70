"""Live SLA monitoring: sliding-window delivery-latency percentiles.

Dynamoth's responsiveness goal is a *95th-percentile latency threshold*
(the paper evaluates the fraction of deliveries arriving under it).  The
run-level histograms in :mod:`repro.obs.metrics` answer that after the
fact; this module answers it *live*, on sim time, so the balancer can see
an SLA breach as a signal and traces carry a violation timeline.

Design -- a sample is recorded once, at the leaf; everything coarser is
merged when someone reads it:

* :class:`SlidingHistogram` -- a ring of K log-bucket
  :class:`~repro.obs.metrics.Histogram` slices covering ``SLA_WINDOW_S``
  seconds of sim time, one ring per ``(channel class, server)`` *leaf*.
  A sample lands in the slice owning its timestamp; slices age out as the
  window advances.  Memory is O(leaves * K * (buckets + FOLD_AT)),
  independent of delivery rate.
* :class:`SlaMonitor` -- fed every :class:`~repro.obs.trace.DeliveryEvent`
  by ``Tracer.emit`` once ``tracer.attach_sla(monitor)``: no frame here,
  emit appends the latency to its leaf slice's ``pending`` samples,
  bucketed in bulk at ``FOLD_AT`` or when the slice is read, and calls
  :meth:`SlaMonitor.advance` only at a slice boundary.
  A scope ("overall", ``channel:<class>``, ``server:<id>``) holds no
  samples: it is the list of leaves it reads, and its windowed percentile
  is a percentile of their merged live slices.  Merging is exact for
  everything the monitor reports -- bucket counts, ``count``, ``min`` and
  ``max`` add up to what a window of the scope's own would hold; only the
  float ``sum`` depends on the order of addition, and nothing here reads
  it.  At each slice boundary every scope's quantile is judged against
  ``threshold_s``, emitting ``sla_violation_start`` /
  ``sla_violation_end`` (and periodic ``sla_window`` stats) trace events.
  A violation is strict crossing: a windowed p95 exactly *at* the
  threshold still meets the SLA, and an empty window (no deliveries at
  all) cannot violate -- so a total outage ends an episode only once the
  stale samples age out, which is why the balancer's evaluation tick also
  calls :meth:`SlaMonitor.poll`.

Everything here advances on event/sim time only -- no wall clock, no RNG,
no scheduled events -- so an SLA-monitored run stays byte-identical to an
unmonitored one on the simulation side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, merge_histograms
from repro.obs.trace import (
    FirstUse,
    SlaViolationEndEvent,
    SlaViolationStartEvent,
    SlaWindowEvent,
    Tracer,
    channel_class,
)

#: Scope label for the cluster-wide window.
OVERALL_SCOPE = "overall"
#: The quantile the SLA is judged on (the paper uses the 95th percentile).
SLA_QUANTILE = 95.0
#: Sliding-window span (sim seconds) and its slice count.
SLA_WINDOW_S = 10.0
SLA_WINDOW_SLICES = 10
#: Bucket layout of the window slices.  Finer than the run-level metrics
#: default (factor 2.0) because an SLA judgment needs to resolve latency
#: to ~12%, not to a power of two.
SLA_BUCKET_MIN_S = 1e-4
SLA_BUCKET_FACTOR = 1.25
SLA_BUCKET_COUNT = 64


class SlidingHistogram:
    """A sim-time sliding window: a ring of ``slices`` latency histograms,
    one per slice of sim time (an *epoch*).

    It has no write method: :meth:`Tracer.emit
    <repro.obs.trace.Tracer.emit>` appends to the slices' ``pending``
    samples in place, so a delivery costs the window no frame.
    """

    def __init__(self, slices: int, min_value: float, factor: float, buckets: int) -> None:
        if slices < 1:
            raise ValueError(f"need slices >= 1: {slices!r}")
        self.hists = [Histogram(min_value, factor, buckets) for _ in range(slices)]
        #: Epoch (slice index since t=0) owning each slot, or None if empty.
        #: A slot keeps an aged-out epoch's samples until the ring comes
        #: round to it; readers go by the epoch, not by the counts.
        self.epochs: List[Optional[int]] = [None] * slices

    def live_slices(self, epoch: int) -> List[Histogram]:
        """Slices within the window ending at ``epoch`` (each holds a sample)."""
        horizon = epoch - len(self.hists) + 1
        return [
            self.hists[slot]
            for slot, slot_epoch in enumerate(self.epochs)
            if slot_epoch is not None and horizon <= slot_epoch <= epoch
        ]


@dataclass
class SlaViolation:
    """One violation episode of one scope (closed when ``end_t`` is set)."""

    scope: str
    start_t: float
    peak_s: float
    end_t: Optional[float] = None

    @property
    def duration_s(self) -> Optional[float]:
        return None if self.end_t is None else self.end_t - self.start_t


@dataclass
class _Scope:
    #: The leaves whose samples are this scope's; it holds none itself.
    leaves: List[SlidingHistogram] = field(default_factory=list)
    active: Optional[SlaViolation] = None


class SlaMonitor:
    """Windowed delivery-latency quantiles per scope, judged live.

    Attach with ``tracer.attach_sla(monitor)``: ``emit`` then records each
    delivery in its leaf through :attr:`feeds`, :attr:`epoch`, ``slice_s``
    and :meth:`advance`.  Optionally call :meth:`poll` from a periodic
    control-plane tick (the balancer's evaluation loop does) so windows
    drain even when deliveries stop.
    """

    def __init__(self, tracer: Tracer, threshold_s: float) -> None:
        if threshold_s <= 0:
            raise ValueError(f"sla threshold must be positive: {threshold_s!r}")
        self._tracer = tracer
        self.threshold_s = threshold_s
        self._scopes: Dict[str, _Scope] = {}
        #: (channel class, server) -> the one window a delivery there feeds.
        self._leaves: Dict[Tuple[str, str], SlidingHistogram] = {}
        #: (channel, server) -> its leaf, so a channel's class is worked
        #: out once per pair, not once per delivery.
        self.feeds = FirstUse(self._leaf_of)
        #: The slice the windows were last judged at (None before any).
        self.epoch: Optional[int] = None
        self.slice_s = SLA_WINDOW_S / SLA_WINDOW_SLICES
        #: Closed + active violation episodes, in start order.
        self.violations: List[SlaViolation] = []

    # ------------------------------------------------------------------
    # Feeding (Tracer.emit records each sample in its leaf)
    # ------------------------------------------------------------------
    def poll(self, now: float) -> None:
        """Advance windows on sim time without recording a sample."""
        self.advance(int(now / self.slice_s))

    # ------------------------------------------------------------------
    # Reading (balancer signal / reports)
    # ------------------------------------------------------------------
    def active_scopes(self) -> Tuple[str, ...]:
        """Scopes currently in violation (read-only balancer signal)."""
        return tuple(
            sorted(name for name, s in self._scopes.items() if s.active is not None)
        )

    def report(self, end_t: float) -> Dict[str, Any]:
        """JSON-able summary: config, per-scope window stats, timeline.

        The headline ``violation_count``, ``violation_seconds`` and
        ``open_count`` are the overall scope's; ``scopes`` and
        ``violations`` hold every scope's.  ``end_t`` is when the run
        stopped: an episode still open then has lasted until then, in
        ``violation_seconds`` (the headline's, and each scope's own).  Its
        ``end_t`` and ``duration_s`` stay ``None``, and ``open_count``
        counts it.
        """
        seconds: Dict[str, float] = {}
        for v in self.violations:
            seconds[v.scope] = seconds.get(v.scope, 0.0) + (
                (end_t if v.end_t is None else v.end_t) - v.start_t
            )
        scopes: Dict[str, Any] = {}
        for name in sorted(self._scopes):
            entry = self._scopes[name]
            merged = self._window(entry)
            scopes[name] = {
                "window_count": merged.count if merged else 0,
                "value_s": merged.percentile(SLA_QUANTILE) if merged else None,
                "violating": entry.active is not None,
                "violation_seconds": seconds.get(name, 0.0),
            }
        violations = [
            {
                "scope": v.scope,
                "start_t": v.start_t,
                "end_t": v.end_t,
                "duration_s": v.duration_s,
                "peak_s": v.peak_s,
            }
            for v in self.violations
        ]
        return {
            "threshold_s": self.threshold_s,
            "quantile": SLA_QUANTILE,
            "window_s": SLA_WINDOW_S,
            "scopes": scopes,
            "violations": violations,
            "violation_count": sum(1 for v in self.violations if v.scope == OVERALL_SCOPE),
            "violation_seconds": seconds.get(OVERALL_SCOPE, 0.0),
            "open_count": sum(
                1 for v in self.violations if v.scope == OVERALL_SCOPE and v.end_t is None
            ),
        }

    # ------------------------------------------------------------------
    # Leaves and the window clock
    # ------------------------------------------------------------------
    def _leaf_of(self, pair: Tuple[str, str]) -> SlidingHistogram:
        """First delivery on ``(channel, server)``: find its leaf, or grow
        one and list it under the scopes that read it."""
        channel, server = pair
        key = (channel_class(channel), server)
        leaf = self._leaves.get(key)
        if leaf is None:
            leaf = self._leaves[key] = SlidingHistogram(
                SLA_WINDOW_SLICES, SLA_BUCKET_MIN_S, SLA_BUCKET_FACTOR, SLA_BUCKET_COUNT
            )
            names = [OVERALL_SCOPE, f"channel:{key[0]}"]
            if server:
                names.append(f"server:{server}")
            for name in names:
                self._scopes.setdefault(name, _Scope()).leaves.append(leaf)
        return leaf

    def _window(self, entry: _Scope) -> Optional[Histogram]:
        """The scope's live samples, merged on read (None if empty)."""
        if self.epoch is None:
            return None
        slices = [h for leaf in entry.leaves for h in leaf.live_slices(self.epoch)]
        return merge_histograms(slices) if slices else None

    def advance(self, epoch: int) -> None:
        """Move the window clock to slice ``epoch``."""
        if self.epoch is None:
            self.epoch = epoch
            return
        # Evaluate each completed slice boundary in order: a gap longer
        # than the window still walks every boundary, so violation
        # timestamps stay slice-aligned.
        while self.epoch < epoch:
            self.epoch += 1
            self._evaluate(self.epoch)

    def _evaluate(self, epoch: int) -> None:
        """Re-judge every scope at a slice boundary."""
        boundary_t = epoch * self.slice_s
        threshold_s = self.threshold_s
        # Only an enabled tracer's ``emit`` feeds a monitor, so no guard.
        emit = self._tracer.emit
        for name in sorted(self._scopes):
            entry = self._scopes[name]
            merged = self._window(entry)
            value = merged.percentile(SLA_QUANTILE) if merged else None
            count = merged.count if merged else 0
            # Strict crossing: value == threshold still meets the SLA.
            violating = value is not None and value > threshold_s
            if violating and entry.active is None:
                assert value is not None
                entry.active = SlaViolation(name, boundary_t, value)
                self.violations.append(entry.active)
                emit(SlaViolationStartEvent(
                    boundary_t, name, SLA_QUANTILE, threshold_s, value, count
                ))
            elif violating and entry.active is not None:
                assert value is not None
                if value > entry.active.peak_s:
                    entry.active.peak_s = value
            elif not violating and entry.active is not None:
                episode = entry.active
                episode.end_t = boundary_t
                entry.active = None
                emit(SlaViolationEndEvent(
                    boundary_t, name, boundary_t - episode.start_t, episode.peak_s
                ))
            if count:
                assert merged is not None
                emit(SlaWindowEvent(
                    boundary_t, name, count, merged.percentile(50), value, merged.max, violating
                ))
