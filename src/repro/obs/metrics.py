"""Metrics registry: named counters, gauges and log-bucketed histograms.

The registry is the *aggregated* half of the flight recorder (the event
trace in :mod:`repro.obs.trace` is the other).  Instruments are created
lazily on first use and identified by a name plus an optional label set::

    registry.counter("deliveries_total", server="pub1").inc()
    registry.histogram("delivery_latency_s", channel_class="tile").observe(0.012)

Histograms are HDR-style: a fixed array of geometrically growing buckets,
so memory stays bounded no matter how many samples are recorded (the
buckets plus at most :data:`FOLD_AT` samples not bucketed yet) and
percentile queries are deterministic (no reservoir sampling).  The relative
error of a percentile estimate is bounded by the bucket growth factor.
A hot site records a sample as one append to the histogram's ``pending``
array, and the samples are bucketed in bulk (see :class:`Histogram`).

:meth:`MetricsRegistry.snapshot` renders everything into plain dicts with
stable, sorted ``name{label=value,...}`` keys -- suitable for JSON export,
assertions in tests, and per-sim-second sampling by the experiment harness.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A per-message site folds a histogram once its ``pending`` holds this
#: many samples (32 KiB of doubles), so memory stays bounded between reads.
FOLD_AT = 4096

#: Canonical instrument key: (name, sorted (label, value) pairs).
InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> InstrumentKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(key: InstrumentKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (no braces unlabeled)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value.

    A one-slot box: :meth:`inc` is the checked way to move it; a
    per-message site whose amount cannot be negative (a count of sends, a
    ``len``) adds to ``value`` in place and saves the frame.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount!r}")
        self.value += amount


class Gauge:
    """A value that can go up and down (set to the latest observation);
    a one-slot box like :class:`Counter`, assigned in place per message."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-memory log-bucketed histogram.

    Bucket ``i >= 1`` covers ``(min_value * factor**(i-1), min_value * factor**i]``;
    bucket 0 catches everything at or below ``min_value``; the last bucket
    absorbs overflow, ``inf`` included.  With the defaults (1 microsecond
    lower bound, factor 2, 64 buckets) the range extends far past any
    simulated latency while keeping percentile estimates within 2x --
    tightened further by clamping to the exact observed min/max.

    A sample is bucketed in bulk.  ``pending`` holds the samples not
    bucketed yet, in arrival order; :meth:`fold` buckets them and empties
    it in place, so a reference to ``pending`` stays valid.  A per-message
    site appends to ``pending`` and folds at :data:`FOLD_AT`::

        pending = hist.pending
        pending.append(value)
        if len(pending) >= FOLD_AT:
            hist.fold()

    which costs it no Python frame; :meth:`observe` is the same in one
    call.  Every read (``count``, ``sum``, ``min``, ``max``,
    :meth:`percentile`, :meth:`to_dict`, :meth:`merge`) folds first, and
    folding adds to ``sum`` in arrival order, so the state read is bit for
    bit what bucketing each sample as it came would hold.
    """

    __slots__ = (
        "_counts", "_count", "_sum", "_min", "_max", "pending",
        "_min_value", "_inv_log_factor", "_factor",
    )

    DEFAULT_MIN = 1e-6
    DEFAULT_FACTOR = 2.0
    DEFAULT_BUCKETS = 64
    #: Quantiles reported by :meth:`to_dict` (the paper's SLA is a p95
    #: latency threshold, so p95 is part of the default set).
    DEFAULT_QUANTILES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0)

    def __init__(
        self,
        min_value: float = DEFAULT_MIN,
        factor: float = DEFAULT_FACTOR,
        buckets: int = DEFAULT_BUCKETS,
    ):
        if min_value <= 0 or factor <= 1 or buckets < 2:
            raise ValueError("need min_value > 0, factor > 1, buckets >= 2")
        self._counts: List[int] = [0] * buckets
        self._count: int = 0
        self._sum: float = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: Samples not bucketed yet, in arrival order (see the class docstring).
        self.pending = array("d")
        self._min_value = min_value
        self._factor = factor
        self._inv_log_factor = 1.0 / math.log(factor)

    @property
    def count(self) -> int:
        if self.pending:
            self.fold()
        return self._count

    @property
    def sum(self) -> float:
        if self.pending:
            self.fold()
        return self._sum

    @property
    def min(self) -> Optional[float]:
        if self.pending:
            self.fold()
        return self._min

    @property
    def max(self) -> Optional[float]:
        if self.pending:
            self.fold()
        return self._max

    def reset(self) -> None:
        """Forget every sample, pending ones too, keeping the bucket layout."""
        del self.pending[:]
        counts = self._counts
        for index in range(len(counts)):
            counts[index] = 0
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def layout(self) -> Tuple[float, float, int]:
        """``(min_value, factor, buckets)`` -- mergeable iff layouts match."""
        return self._min_value, self._factor, len(self._counts)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram (same layout only)."""
        counts = self._counts
        if (
            other._min_value != self._min_value
            or other._factor != self._factor
            or len(other._counts) != len(counts)
        ):
            raise ValueError(
                f"histogram layouts differ: {self.layout()} vs {other.layout()}"
            )
        if self.pending:
            self.fold()
        if other.pending:
            other.fold()
        for index, bucket_count in enumerate(other._counts):
            counts[index] += bucket_count
        self._count += other._count
        self._sum += other._sum
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max

    def observe(self, value: float) -> None:
        """Record one sample (a NaN raises ``ValueError``)."""
        self.pending.append(value)
        self.fold()

    def fold(self) -> None:
        """Bucket the pending samples, in arrival order, and empty ``pending``.

        A NaN sample raises ``ValueError``: the samples before it are
        bucketed, it is dropped, and the ones after it stay pending.
        """
        pending = self.pending
        counts = self._counts
        last = len(counts) - 1
        min_value = self._min_value
        scale = self._inv_log_factor
        log = math.log
        total = self._sum
        # +-inf stand in for "no sample yet": the first sample replaces
        # both (an inf sample leaves the bound it equals), and they are
        # written back only once a sample has been counted.
        low = math.inf if self._min is None else self._min
        high = -math.inf if self._max is None else self._max
        folded = len(pending)
        for position, value in enumerate(pending):
            if value <= min_value:
                index = 0
            else:
                # Clamp before int(): an inf sample has an inf exponent.
                exponent = log(value / min_value) * scale
                if exponent < last:
                    index = 1 + int(exponent)
                elif exponent >= last:
                    index = last
                else:  # NaN compares false both ways
                    folded = position
                    break
            counts[index] += 1
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self._count += folded
        self._sum = total
        if self._count:
            self._min = low
            self._max = high
        rejected = folded < len(pending)
        del pending[: folded + 1]
        if rejected:
            raise ValueError("histogram sample is NaN")

    def mean(self) -> Optional[float]:
        if self.pending:
            self.fold()
        return self._sum / self._count if self._count else None

    def percentile(self, q: float) -> Optional[float]:
        """Estimated value at percentile ``q`` (0..100)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q!r}")
        if self.pending:
            self.fold()
        if not self._count:
            return None
        # The extremes are tracked exactly; don't pay the bucket error there.
        if q == 0:
            return self._min
        if q == 100:
            return self._max
        rank = q / 100.0 * (self._count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative > rank:
                estimate = self._bucket_midpoint(index)
                # Exact extremes beat the bucket estimate at the edges.
                assert self._min is not None and self._max is not None
                return min(self._max, max(self._min, estimate))
        return self._max  # pragma: no cover - unreachable (counts sum to count)

    def _bucket_midpoint(self, index: int) -> float:
        if index == 0:
            return self._min_value
        lower = self._min_value * self._factor ** (index - 1)
        return lower * math.sqrt(self._factor)

    def to_dict(self, quantiles: Optional[Sequence[float]] = None) -> Dict[str, object]:
        if quantiles is None:
            quantiles = self.DEFAULT_QUANTILES
        if self.pending:
            self.fold()
        out: Dict[str, object] = {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean(),
        }
        for q in quantiles:
            out[quantile_label(q)] = self.percentile(q)
        return out


def quantile_label(q: float) -> str:
    """``50.0 -> "p50"``, ``99.9 -> "p99.9"`` -- stable snapshot keys."""
    text = f"{q:g}"
    return f"p{text}"


def merge_histograms(histograms: Iterable[Histogram]) -> Histogram:
    """Aggregate same-layout histograms into a fresh one.

    Used by the sliding-window SLA view: each window slice is one
    :class:`Histogram`, and a windowed percentile is a percentile of the
    merged slices.
    """
    out: Optional[Histogram] = None
    for h in histograms:
        if out is None:
            out = Histogram(*h.layout())
        out.merge(h)
    if out is None:
        raise ValueError("cannot merge zero histograms")
    return out


class MetricsRegistry:
    """Lazily created, label-aware instruments plus on-demand snapshots.

    Lookups are memoised on the raw call shape ``(kind, name,
    *labels.items())``, so a repeated ``counter("x", server=sid)`` costs one
    dict probe instead of re-sorting and re-stringifying its labels.  Many
    raw shapes (any kwarg order) map to the one canonical instrument; the
    canonical tables, and therefore :meth:`snapshot`, know nothing of the
    memo.  Label values must be hashable.
    """

    def __init__(self, quantiles: Optional[Sequence[float]] = None) -> None:
        self._counters: Dict[InstrumentKey, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}
        self._kinds: Dict[str, str] = {}
        #: raw call shape -> canonical instrument (see the class docstring).
        self._memo: Dict[Tuple[Any, ...], Any] = {}
        self._collectors: List[Callable[[], None]] = []
        #: Quantile list rendered into histogram snapshots.
        self.quantiles: Tuple[float, ...] = (
            tuple(quantiles) if quantiles is not None else Histogram.DEFAULT_QUANTILES
        )

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def _check_kind(self, name: str, kind: str) -> None:
        existing = self._kinds.setdefault(name, kind)
        if existing != kind:
            raise ValueError(f"metric {name!r} already registered as a {existing}")

    def _resolve(
        self,
        raw: Tuple[Any, ...],
        table: Dict[InstrumentKey, Any],
        labels: Dict[str, object],
        factory: Callable[..., Any],
        *layout: object,
    ) -> Any:
        """Memo miss: get or create the canonical instrument for ``raw``."""
        kind, name = raw[0], raw[1]
        key = _key(name, labels)
        instrument = table.get(key)
        if instrument is None:
            self._check_kind(name, kind)
            instrument = table[key] = factory(*layout)
        # ``1``, ``1.0`` and ``True`` are one dict key but three label
        # strings, so only shapes whose values *are* their label strings
        # may be answered from the memo.
        if all(type(value) is str for value in labels.values()):
            self._memo[raw] = instrument
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        raw = ("counter", name, *labels.items())
        instrument = self._memo.get(raw)
        if instrument is None:
            instrument = self._resolve(raw, self._counters, labels, Counter)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        raw = ("gauge", name, *labels.items())
        instrument = self._memo.get(raw)
        if instrument is None:
            instrument = self._resolve(raw, self._gauges, labels, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        *,
        min_value: float = Histogram.DEFAULT_MIN,
        factor: float = Histogram.DEFAULT_FACTOR,
        buckets: int = Histogram.DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        raw = ("histogram", name, *labels.items())
        instrument = self._memo.get(raw)
        if instrument is None:
            instrument = self._resolve(
                raw, self._histograms, labels, Histogram, min_value, factor, buckets
            )
        return instrument

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect()`` before every read: :meth:`snapshot`,
        :meth:`counter_value` and :meth:`counter_total`.

        For values whose source already holds them (the kernel's event
        count and clock): the collector copies them into instruments when
        someone looks, instead of a hook pushing them once per event.
        """
        self._collectors.append(collect)

    def _collect(self) -> None:
        for collect in self._collectors:
            collect()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything, as plain JSON-serializable dicts with stable keys."""
        self._collect()
        return {
            "counters": {
                format_key(k): c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {format_key(k): g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                format_key(k): h.to_dict(self.quantiles)
                for k, h in sorted(self._histograms.items())
            },
        }

    def counter_value(self, name: str, **labels: object) -> float:
        self._collect()
        instrument = self._counters.get(_key(name, labels))
        return instrument.value if instrument is not None else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of one counter family over all label sets."""
        self._collect()
        return sum(c.value for (n, __), c in self._counters.items() if n == name)
