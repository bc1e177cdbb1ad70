"""Live SLA monitoring: sliding-window delivery-latency percentiles.

Dynamoth's responsiveness goal is a *95th-percentile latency threshold*
(the paper evaluates the fraction of deliveries arriving under it).  The
run-level histograms in :mod:`repro.obs.metrics` answer that after the
fact; this module answers it *live*, on sim time, so the balancer can see
an SLA breach as a signal and traces carry a violation timeline.

Design:

* :class:`SlidingHistogram` -- a ring of K log-bucket
  :class:`~repro.obs.metrics.Histogram` slices covering ``window_s``
  seconds of sim time.  Observations land in the slice owning their
  timestamp; slices age out as the window advances; a windowed percentile
  is a percentile of the merged live slices.  Memory is O(K * buckets),
  independent of delivery rate.
* :class:`SlaMonitor` -- a tracer observer fed every
  :class:`~repro.obs.trace.DeliveryEvent`.  It maintains windows per scope
  ("overall", ``channel:<class>``, ``server:<id>``) and, at each slice
  boundary, evaluates the configured quantile against ``threshold_s``,
  emitting ``sla_violation_start`` / ``sla_violation_end`` (and periodic
  ``sla_window`` stats) trace events.  A violation is strict crossing:
  a windowed p95 exactly *at* the threshold still meets the SLA, and an
  empty window (no deliveries at all) cannot violate -- so a total outage
  ends an episode only once the stale samples age out, which is why the
  balancer's evaluation tick also calls :meth:`SlaMonitor.poll`.

Everything here advances on event/sim time only -- no wall clock, no RNG,
no scheduled events -- so an SLA-monitored run stays byte-identical to an
unmonitored one on the simulation side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, merge_histograms
from repro.obs.trace import (
    DeliveryEvent,
    SlaViolationEndEvent,
    SlaViolationStartEvent,
    SlaWindowEvent,
    TraceEvent,
    Tracer,
    channel_class,
)

#: Scope label for the cluster-wide window.
OVERALL_SCOPE = "overall"


class SlidingHistogram:
    """A sim-time sliding window over log-bucketed latency histograms."""

    def __init__(
        self,
        window_s: float = 10.0,
        slices: int = 10,
        *,
        min_value: float = Histogram.DEFAULT_MIN,
        factor: float = Histogram.DEFAULT_FACTOR,
        buckets: int = Histogram.DEFAULT_BUCKETS,
    ) -> None:
        if window_s <= 0 or slices < 1:
            raise ValueError("need window_s > 0 and slices >= 1")
        self.window_s = window_s
        self.slice_s = window_s / slices
        self._hists = [Histogram(min_value, factor, buckets) for _ in range(slices)]
        #: Epoch (slice index since t=0) owning each slot, or None if empty.
        self._epochs: List[Optional[int]] = [None] * slices

    def epoch_of(self, t: float) -> int:
        return int(t / self.slice_s)

    def observe(self, t: float, value: float) -> None:
        # SlaMonitor.observe unrolls this over its windows; keep them in step.
        epoch = self.epoch_of(t)
        slot = epoch % len(self._hists)
        hist = self._hists[slot]
        if self._epochs[slot] != epoch:
            hist.reset()
            self._epochs[slot] = epoch
        hist.observe(value)

    def roll(self, epoch: int) -> None:
        """Age out slices that fell behind the window ending at ``epoch``."""
        horizon = epoch - len(self._hists) + 1
        for slot, slot_epoch in enumerate(self._epochs):
            if slot_epoch is not None and (slot_epoch < horizon or slot_epoch > epoch):
                self._hists[slot].reset()
                self._epochs[slot] = None

    def live_slices(self, epoch: int) -> List[Histogram]:
        """Non-empty slices within the window ending at ``epoch``."""
        horizon = epoch - len(self._hists) + 1
        return [
            self._hists[slot]
            for slot, slot_epoch in enumerate(self._epochs)
            if slot_epoch is not None and horizon <= slot_epoch <= epoch
        ]

    def merged(self, epoch: int) -> Optional[Histogram]:
        """All live samples in the window as one histogram (None if empty)."""
        slices = self.live_slices(epoch)
        if not slices:
            return None
        merged = merge_histograms(slices)
        return merged if merged.count else None


@dataclass(frozen=True)
class SlaConfig:
    """Static parameters of the live SLA monitor."""

    threshold_s: float
    quantile: float = 95.0
    window_s: float = 10.0
    slices: int = 10
    per_channel: bool = True
    per_server: bool = True
    emit_window_stats: bool = True
    #: Bucket layout of the window slices.  Finer than the run-level
    #: metrics default (factor 2.0) because an SLA judgment needs to
    #: resolve latency to ~12%, not to a power of two.
    bucket_min_s: float = 1e-4
    bucket_factor: float = 1.25
    bucket_count: int = 64

    def __post_init__(self) -> None:
        if self.threshold_s <= 0:
            raise ValueError(f"sla threshold must be positive: {self.threshold_s!r}")
        if not 0 < self.quantile <= 100:
            raise ValueError(f"sla quantile out of (0, 100]: {self.quantile!r}")
        if self.window_s <= 0 or self.slices < 1:
            raise ValueError("need window_s > 0 and slices >= 1")
        if self.bucket_min_s <= 0 or self.bucket_factor <= 1 or self.bucket_count < 1:
            raise ValueError("need bucket_min_s > 0, bucket_factor > 1, buckets >= 1")


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
    window: SlidingHistogram
    active: Optional[SlaViolation] = None


class SlaMonitor:
    """Tracer observer tracking windowed latency quantiles per scope.

    Attach with ``tracer.add_observer(monitor)``; optionally call
    :meth:`poll` from a periodic control-plane tick (the balancer's
    evaluation loop does) so windows drain even when deliveries stop.
    """

    def __init__(self, tracer: Tracer, config: SlaConfig) -> None:
        self._tracer = tracer
        self.config = config
        self._scopes: Dict[str, _Scope] = {}
        #: (channel, server) -> the windows one delivery there feeds, so
        #: scope names are built once per pair, not once per delivery.
        self._feeds: Dict[Tuple[str, str], Tuple[SlidingHistogram, ...]] = {}
        self._epoch: Optional[int] = None
        self.slice_s = config.window_s / config.slices
        #: Closed + active violation episodes, in start order.
        self.violations: List[SlaViolation] = []

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        """Tracer-observer entry point."""
        if type(event) is DeliveryEvent:
            self.observe(event.t, event.latency_s, event.channel, event.server)

    # repro: scope[hot]
    def observe(self, t: float, latency_s: float, channel: str, server: str = "") -> None:
        # One pass: every window shares ``slice_s``, so the epoch and the
        # ring slot are worked out once and SlidingHistogram.observe is
        # unrolled over the windows this (channel, server) feeds.
        epoch = int(t / self.slice_s)
        if epoch != self._epoch:
            self._advance(epoch)
        windows = self._feeds.get((channel, server))
        if windows is None:
            windows = self._feed(channel, server)
        slot = epoch % self.config.slices
        for window in windows:
            hist = window._hists[slot]
            if window._epochs[slot] != epoch:
                hist.reset()
                window._epochs[slot] = epoch
            hist.observe(latency_s)

    def poll(self, now: float) -> None:
        """Advance windows on sim time without recording a sample."""
        self._advance(int(now / self.slice_s))

    # ------------------------------------------------------------------
    # Reading (balancer signal / reports)
    # ------------------------------------------------------------------
    def active_scopes(self) -> Tuple[str, ...]:
        """Scopes currently in violation (read-only balancer signal)."""
        return tuple(
            sorted(name for name, s in self._scopes.items() if s.active is not None)
        )

    def in_violation(self, scope: str = OVERALL_SCOPE) -> bool:
        entry = self._scopes.get(scope)
        return entry is not None and entry.active is not None

    def windowed_percentile(self, scope: str = OVERALL_SCOPE) -> Optional[float]:
        """Current windowed SLA-quantile value for ``scope`` (None if empty)."""
        entry = self._scopes.get(scope)
        if entry is None or self._epoch is None:
            return None
        merged = entry.window.merged(self._epoch)
        return None if merged is None else merged.percentile(self.config.quantile)

    def report(self) -> Dict[str, Any]:
        """JSON-able summary: config, per-scope window stats, timeline."""
        scopes: Dict[str, Any] = {}
        for name in sorted(self._scopes):
            entry = self._scopes[name]
            merged = (
                entry.window.merged(self._epoch) if self._epoch is not None else None
            )
            scopes[name] = {
                "window_count": merged.count if merged else 0,
                "value_s": (
                    merged.percentile(self.config.quantile) if merged else None
                ),
                "violating": entry.active is not None,
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
            "threshold_s": self.config.threshold_s,
            "quantile": self.config.quantile,
            "window_s": self.config.window_s,
            "scopes": scopes,
            "violations": violations,
            "violation_count": len(violations),
            "violation_seconds": sum(v.duration_s or 0.0 for v in self.violations),
        }

    # ------------------------------------------------------------------
    # Window clock
    # ------------------------------------------------------------------
    def _feed(self, channel: str, server: str) -> Tuple[SlidingHistogram, ...]:
        """First delivery on ``(channel, server)``: resolve its scopes."""
        names = [OVERALL_SCOPE]
        if self.config.per_channel:
            names.append(f"channel:{channel_class(channel)}")
        if self.config.per_server and server:
            names.append(f"server:{server}")
        windows = self._feeds[channel, server] = tuple(
            self._scope(name).window for name in names
        )
        return windows

    def _scope(self, name: str) -> _Scope:
        entry = self._scopes.get(name)
        if entry is None:
            config = self.config
            entry = self._scopes[name] = _Scope(
                SlidingHistogram(
                    config.window_s,
                    config.slices,
                    min_value=config.bucket_min_s,
                    factor=config.bucket_factor,
                    buckets=config.bucket_count,
                )
            )
        return entry

    def _advance(self, epoch: int) -> None:
        if self._epoch is None:
            self._epoch = epoch
            return
        # Evaluate each completed slice boundary in order (bounded per
        # scope by the ring size via roll(), but boundaries themselves are
        # walked so violation timestamps stay slice-aligned).
        while self._epoch < epoch:
            self._epoch += 1
            self._evaluate(self._epoch)

    def _evaluate(self, epoch: int) -> None:
        """Re-judge every scope at a slice boundary."""
        boundary_t = epoch * self.slice_s
        config = self.config
        tracer = self._tracer
        for name in sorted(self._scopes):
            entry = self._scopes[name]
            entry.window.roll(epoch)
            merged = entry.window.merged(epoch)
            value = merged.percentile(config.quantile) if merged else None
            count = merged.count if merged else 0
            # Strict crossing: value == threshold still meets the SLA.
            violating = value is not None and value > config.threshold_s
            if violating and entry.active is None:
                assert value is not None
                entry.active = SlaViolation(name, boundary_t, value)
                self.violations.append(entry.active)
                if tracer.enabled:
                    tracer.emit(
                        SlaViolationStartEvent(
                            boundary_t, name, config.quantile,
                            config.threshold_s, value, count,
                        )
                    )
            elif violating and entry.active is not None:
                assert value is not None
                if value > entry.active.peak_s:
                    entry.active.peak_s = value
            elif not violating and entry.active is not None:
                episode = entry.active
                episode.end_t = boundary_t
                entry.active = None
                if tracer.enabled:
                    tracer.emit(
                        SlaViolationEndEvent(
                            boundary_t, name,
                            boundary_t - episode.start_t, episode.peak_s,
                        )
                    )
            if config.emit_window_stats and count and tracer.enabled:
                tracer.emit(
                    SlaWindowEvent(
                        boundary_t, name, count,
                        merged.percentile(50) if merged else None,
                        value,
                        merged.max if merged else None,
                        violating,
                    )
                )
