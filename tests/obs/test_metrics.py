"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    FOLD_AT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_key,
    merge_histograms,
    quantile_label,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(4.0)
        g.add(-1.5)
        assert g.value == pytest.approx(2.5)


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean() is None
        assert h.percentile(50) is None

    def test_mean_and_count(self):
        h = Histogram()
        for v in (0.010, 0.020, 0.030):
            h.observe(v)
        assert h.count == 3
        assert h.mean() == pytest.approx(0.020)
        assert h.min == pytest.approx(0.010)
        assert h.max == pytest.approx(0.030)

    def test_percentiles_within_bucket_error(self):
        """With factor 2 the relative error is bounded by 2x; edges are
        exact thanks to min/max clamping."""
        h = Histogram()
        values = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for v in values:
            h.observe(v)
        p50 = h.percentile(50)
        assert 0.025 <= p50 <= 0.100  # true p50 is ~50ms
        assert h.percentile(0) == pytest.approx(0.001)
        assert h.percentile(100) == pytest.approx(0.100)

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram()
        h.observe(0.0421)
        assert h.percentile(50) == pytest.approx(0.0421)
        assert h.percentile(99) == pytest.approx(0.0421)

    def test_percentile_out_of_range_raises(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_percentile_out_of_range_raises_when_empty(self):
        with pytest.raises(ValueError, match="out of range"):
            Histogram().percentile(150)
        with pytest.raises(ValueError, match="out of range"):
            Histogram().percentile(-1)

    def test_inf_lands_in_the_overflow_bucket(self):
        h = Histogram(min_value=1e-3, factor=2.0, buckets=4)
        h.observe(0.0015)
        h.observe(math.inf)
        assert h.count == 2
        assert h._counts == [0, 1, 0, 1]
        assert h.max == math.inf
        assert h.percentile(100) == math.inf

    def test_nan_is_rejected_by_name(self):
        h = Histogram()
        h.observe(0.5)
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        assert h.count == 1 and h.max == 0.5 and not h.pending

    def test_nan_among_pending_samples_keeps_the_others(self):
        """The samples before a NaN are bucketed, the NaN is dropped, and
        the ones after it stay pending for the next fold."""
        h = Histogram()
        h.pending.extend([0.25, math.nan, 0.75])
        with pytest.raises(ValueError, match="NaN"):
            h.fold()
        assert list(h.pending) == [0.75]
        assert h.count == 2
        assert (h.min, h.max, h.sum) == (0.25, 0.75, 1.0)

    def test_pending_samples_are_seen_by_every_read(self):
        h = Histogram()
        pending = h.pending
        pending.extend([0.5, 0.25])
        assert (h.count, h.min, h.max, h.sum) == (2, 0.25, 0.5, 0.75)
        assert h.pending is pending and not pending  # emptied in place
        pending.append(1.0)
        assert h.to_dict()["count"] == 3
        pending.append(2.0)
        h.reset()
        assert h.count == 0 and not pending

    def test_underflow_and_overflow_buckets(self):
        h = Histogram(min_value=1e-3, factor=2.0, buckets=4)
        h.observe(1e-9)   # below min -> bucket 0
        h.observe(1e9)    # far above range -> last bucket
        assert h.count == 2
        assert h.percentile(0) == pytest.approx(1e-9)
        assert h.percentile(100) == pytest.approx(1e9)

    def test_fixed_memory(self):
        h = Histogram(buckets=8)
        for i in range(10_000):
            h.observe(0.001 * (1 + i % 100))
        assert len(h._counts) == 8
        assert h.count == 10_000

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(min_value=0.0)
        with pytest.raises(ValueError):
            Histogram(factor=1.0)
        with pytest.raises(ValueError):
            Histogram(buckets=1)

    def test_to_dict_fields(self):
        h = Histogram()
        h.observe(0.5)
        d = h.to_dict()
        assert d["count"] == 1
        assert d["min"] == d["max"] == d["p50"] == d["p99"] == pytest.approx(0.5)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("deliveries_total", server="pub1")
        b = reg.counter("deliveries_total", server="pub1")
        assert a is b

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("deliveries_total", server="pub1").inc(3)
        reg.counter("deliveries_total", server="pub2").inc(4)
        assert reg.counter_value("deliveries_total", server="pub1") == 3
        assert reg.counter_value("deliveries_total", server="pub2") == 4
        assert reg.counter_total("deliveries_total") == 7

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        assert reg.counter_value("x", b="2", a="1") == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("thing")

    def test_any_spelling_of_a_label_set_is_one_instrument(self):
        """The lookup memo is keyed on the raw call shape; every shape must
        still land on the one canonical instrument, hit or miss."""
        reg = MetricsRegistry()
        first = reg.counter("x", a="1", b="2")
        for _ in range(2):  # second round is answered from the memo
            assert reg.counter("x", a="1", b="2") is first
            assert reg.counter("x", b="2", a="1") is first
            assert reg.counter("x", a=1, b=2) is first
            assert reg.counter("x", b="2", a=1) is first
        assert list(reg.snapshot()["counters"]) == ["x{a=1,b=2}"]

    def test_equal_keys_with_different_label_text_stay_apart(self):
        # 1 == 1.0 == True as dict keys, but they are three label strings.
        reg = MetricsRegistry()
        for _ in range(2):
            reg.counter("x", a=1).inc()
            reg.counter("x", a=1.0).inc(10)
            reg.counter("x", a=True).inc(100)
        assert reg.snapshot()["counters"] == {
            "x{a=1.0}": 20, "x{a=1}": 2, "x{a=True}": 200,
        }

    def test_kind_conflict_rejected_with_a_warm_memo(self):
        reg = MetricsRegistry()
        for _ in range(2):
            reg.counter("thing", server="a").inc()
        for _ in range(2):
            with pytest.raises(ValueError, match="already registered as a counter"):
                reg.gauge("thing", server="a")
        assert reg.snapshot()["gauges"] == {}

    def test_untouched_instrument_is_absent_from_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("touched", server="a").inc()
        reg.counter_value("only_read", server="a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["touched{server=a}"]
        assert snap["gauges"] == {} and snap["histograms"] == {}

    def test_collectors_run_at_every_snapshot(self):
        reg = MetricsRegistry()
        source = [3.0]
        reg.add_collector(lambda: reg.gauge("pulled").set(source[0]))
        assert reg.snapshot()["gauges"] == {"pulled": 3.0}
        source[0] = 4.0
        assert reg.snapshot()["gauges"] == {"pulled": 4.0}

    def test_collectors_run_before_a_counter_is_read(self):
        """A pulled counter must not read stale between snapshots."""
        reg = MetricsRegistry()
        source, counted = [2.0], [0.0]

        def collect():
            reg.counter("pulled", kind="a").inc(source[0] - counted[0])
            counted[0] = source[0]

        reg.add_collector(collect)
        assert reg.counter_value("pulled", kind="a") == 2.0
        source[0] = 5.0
        assert reg.counter_total("pulled") == 5.0
        assert reg.counter_value("pulled", kind="a") == 5.0

    def test_kernel_events_read_without_a_snapshot(self):
        from repro.obs.trace import Tracer
        from repro.sim.kernel import Simulator

        sim, tracer = Simulator(), Tracer()
        tracer.attach_kernel(sim)
        for i in range(5):
            sim.schedule(0.1 * i, lambda: None)
        sim.run_until(1.0)
        assert tracer.metrics.counter_value("sim_events_total") == 5.0

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0

    def test_snapshot_stable_keys(self):
        reg = MetricsRegistry()
        reg.counter("c", server="b").inc()
        reg.counter("c", server="a").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", channel_class="tile").observe(0.01)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["c{server=a}", "c{server=b}"]
        assert snap["counters"]["c{server=a}"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h{channel_class=tile}"]["count"] == 1

    def test_snapshot_is_json_serializable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(2.0)
        json.dumps(reg.snapshot())  # must not raise


class TestFormatKey:
    def test_unlabeled(self):
        assert format_key(("name", ())) == "name"

    def test_labeled(self):
        assert format_key(("name", (("a", "1"), ("b", "2")))) == "name{a=1,b=2}"


class TestQuantiles:
    def test_to_dict_includes_p95_by_default(self):
        h = Histogram()
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        d = h.to_dict()
        assert set(d) >= {"p50", "p90", "p95", "p99"}
        assert d["p50"] <= d["p95"] <= d["p99"]

    def test_custom_quantile_list(self):
        h = Histogram()
        h.observe(1.0)
        d = h.to_dict(quantiles=(50.0, 99.9))
        assert "p50" in d and "p99.9" in d
        assert "p95" not in d

    def test_quantile_label_formatting(self):
        assert quantile_label(50.0) == "p50"
        assert quantile_label(99.9) == "p99.9"

    def test_registry_renders_configured_quantiles(self):
        reg = MetricsRegistry(quantiles=(75.0,))
        reg.histogram("lat").observe(0.4)
        snap = reg.snapshot()
        assert "p75" in snap["histograms"]["lat"]
        assert "p95" not in snap["histograms"]["lat"]

    def test_merge_combines_counts(self):
        a, b = Histogram(), Histogram()
        a.observe(0.1)
        b.observe(0.2)
        merged = merge_histograms([a, b])
        assert merged.count == 2
        assert merged.min == pytest.approx(0.1)
        assert merged.max == pytest.approx(0.2)

    def test_merge_rejects_layout_mismatch(self):
        a = Histogram()
        b = Histogram(min_value=1e-3)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_reset_clears_samples(self):
        h = Histogram()
        h.observe(0.5)
        h.reset()
        assert h.count == 0
        assert h.to_dict()["count"] == 0


class _EagerHistogram:
    """The histogram before bulk bucketing: every sample is bucketed as it
    arrives (the old ``observe``, clamping ``inf`` into the last bucket),
    and reads need no fold."""

    def __init__(self, min_value, factor, buckets):
        self._counts = [0] * buckets
        self.count, self.sum, self.min, self.max = 0, 0.0, None, None
        self.min_value, self.factor = min_value, factor
        self.inv_log_factor = 1.0 / math.log(factor)

    def observe(self, value):
        if value <= self.min_value:
            index = 0
        elif math.isinf(value):
            index = len(self._counts) - 1
        else:
            index = 1 + int(math.log(value / self.min_value) * self.inv_log_factor)
            index = min(index, len(self._counts) - 1)
        self._counts[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other):
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def reset(self):
        self.__init__(self.min_value, self.factor, len(self._counts))

    def percentile(self, q):
        if not self.count:
            return None
        if q == 0:
            return self.min
        if q == 100:
            return self.max
        rank = q / 100.0 * (self.count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative > rank:
                if index == 0:
                    estimate = self.min_value
                else:
                    lower = self.min_value * self.factor ** (index - 1)
                    estimate = lower * math.sqrt(self.factor)
                return min(self.max, max(self.min, estimate))

    def to_dict(self):
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count if self.count else None,
        }
        for q in Histogram.DEFAULT_QUANTILES:
            out[quantile_label(q)] = self.percentile(q)
        return out


_LAYOUTS = [(1e-6, 2.0, 64), (1e-3, 2.0, 8), (1e-4, 1.25, 64)]


@st.composite
def _histogram_scripts(draw):
    """A layout, and a script of operations over samples that sit on its
    bucket edges, below its minimum, past its last bucket and in between."""
    min_value, factor, buckets = layout = draw(st.sampled_from(_LAYOUTS))
    edges = [min_value * factor**k for k in range(buckets + 2)]
    samples = st.one_of(
        st.sampled_from(
            [0.0, min_value / 2, min_value, 1e300, math.inf]
            + edges
            + [math.nextafter(edge, math.inf) for edge in edges]
        ),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    batches = st.lists(samples, max_size=6)
    operation = st.one_of(
        st.tuples(st.just("observe"), samples),
        st.tuples(st.just("append"), samples),
        st.tuples(st.just("read"), st.sampled_from(["count", "sum", "min", "max"])),
        st.tuples(st.just("to_dict"), st.none()),
        st.tuples(st.just("percentile"), st.floats(min_value=0.0, max_value=100.0)),
        st.tuples(st.just("merge_in"), batches),
        st.tuples(st.just("merge_out"), batches),
        st.tuples(st.just("reset"), st.none()),
    )
    return layout, draw(st.lists(operation, max_size=40))


def _state(h):
    """Everything a histogram reports, floats by bit pattern."""
    return repr((h.to_dict(), h._counts))


class TestBulkBucketing:
    @settings(max_examples=300, deadline=None)
    @given(_histogram_scripts())
    def test_matches_the_eager_reference(self, script):
        """Appending to ``pending`` and folding on read or at ``FOLD_AT``
        holds, after every step, exactly what bucketing each sample as it
        came would hold -- ``sum`` bit for bit."""
        layout, operations = script
        h, ref = Histogram(*layout), _EagerHistogram(*layout)
        for op, arg in operations:
            if op == "observe":
                h.observe(arg)
                ref.observe(arg)
            elif op == "append":
                pending = h.pending
                pending.append(arg)
                if len(pending) >= FOLD_AT:
                    h.fold()
                ref.observe(arg)
            elif op == "read":
                assert repr(getattr(h, arg)) == repr(getattr(ref, arg))
            elif op == "to_dict":
                assert _state(h) == _state(ref)
            elif op == "percentile":
                assert repr(h.percentile(arg)) == repr(ref.percentile(arg))
            elif op in ("merge_in", "merge_out"):
                other, other_ref = Histogram(*layout), _EagerHistogram(*layout)
                other.pending.extend(arg)
                for value in arg:
                    other_ref.observe(value)
                if op == "merge_in":
                    h.merge(other)
                    ref.merge(other_ref)
                else:  # ``h`` is the source: its pending samples must come along
                    other.merge(h)
                    other_ref.merge(ref)
                    assert _state(other) == _state(other_ref)
            else:
                h.reset()
                ref.reset()
        assert h.count == ref.count
        assert (h.min, h.max) == (ref.min, ref.max)
        assert h.sum.hex() == ref.sum.hex()
        assert _state(h) == _state(ref)
        assert not h.pending


class TestFoldBound:
    """3 x ``FOLD_AT`` samples at each per-message site: every sample is
    taken, and no ``pending`` array ever holds more than ``FOLD_AT``."""

    SAMPLES = 3 * FOLD_AT

    def test_client_and_broker_sites(self):
        from repro.core.cluster import BALANCER_NONE, DynamothCluster
        from repro.obs.trace import DeliveryEvent, Tracer

        tracer = Tracer()
        cluster = DynamothCluster(
            seed=0, initial_servers=1, balancer=BALANCER_NONE, tracer=tracer
        )
        sim = cluster.sim
        cluster.create_client("sub").subscribe("tile:0:0", lambda channel, body, envelope: None)
        publisher = cluster.create_client("pub")
        cluster.run_for(1.0)
        hists = tracer.metrics._histograms
        peak = [0]

        def sample(event):
            peak[0] = max(peak[0], *(len(h.pending) for h in hists.values()))

        tracer.add_observer(sample, DeliveryEvent)
        for i in range(self.SAMPLES):
            sim.schedule(i * 1e-3, publisher.publish, "tile:0:0", i, 100)
        cluster.run_for(self.SAMPLES * 1e-3 + 1.0)

        latency = tracer.metrics.histogram("delivery_latency_s", channel_class="tile")
        fanout = tracer.metrics.histogram("fanout_size", channel_class="tile")
        assert peak[0] <= FOLD_AT
        assert max(len(latency.pending), len(fanout.pending)) <= FOLD_AT
        assert latency.count == fanout.count == self.SAMPLES

    def test_sla_leaf_slice(self):
        from repro.obs.sla import SlaMonitor
        from repro.obs.trace import DeliveryEvent, Tracer

        monitor = SlaMonitor(Tracer(), threshold_s=0.1)
        peak = 0
        for i in range(self.SAMPLES):
            # One slice of sim time: no slice-boundary read folds the leaf.
            monitor.on_delivery(
                DeliveryEvent(0.5, "sub", "tile:0:0", i, "pub", 0.01, 0, "pub1")
            )
            (leaf,) = monitor._leaves.values()
            peak = max(peak, *(len(h.pending) for h in leaf._hists))
        assert peak <= FOLD_AT
        assert sum(h.count for h in leaf._hists) == self.SAMPLES
