"""Streaming trace sink tests: byte-equivalence, bounded memory, rotation."""

import gzip
import hashlib

import pytest

from repro.obs.export import (
    dump_tracer,
    read_trace,
    read_trace_segments,
    trace_segments,
)
from repro.obs.sink import StreamingJsonlSink
from repro.obs.sla import SlaMonitor
from repro.obs.trace import (
    DeliveryEvent,
    MetricsEvent,
    PublishEvent,
    ServerReadyEvent,
    SlaWindowEvent,
    Tracer,
)


def _emit_sample_run(tracer, n=50):
    """A deterministic event mix that also populates the metrics trailer."""
    tracer.emit(ServerReadyEvent(0.0, "pub1"))
    for i in range(n):
        t = 0.1 * (i + 1)
        tracer.emit(PublishEvent(t, f"m{i}", "tile:1:1", "alice", 2, ("pub1",), 120))
        tracer.emit(
            DeliveryEvent(t + 0.01, "bob", "tile:1:1", f"m{i}", "alice", 0.01, 2, "pub1")
        )
        tracer.metrics.counter("deliveries_total").inc()


def _buffered_bytes(tmp_path, n=50):
    tracer = Tracer()
    _emit_sample_run(tracer, n)
    path = tmp_path / "buffered.jsonl"
    dump_tracer(tracer, path)
    return path.read_bytes()


class TestByteEquivalence:
    def test_streamed_equals_buffered(self, tmp_path):
        expected = _buffered_bytes(tmp_path)
        path = tmp_path / "streamed.jsonl"
        sink = StreamingJsonlSink(str(path), chunk_events=7)
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer)
        sink.finalize(tracer)
        assert path.read_bytes() == expected

    def test_trailer_timestamp_when_the_last_emitted_event_is_not_the_latest(self, tmp_path):
        """An SLA boundary event is emitted *after* the delivery that
        crossed the boundary, stamped with the earlier boundary time; both
        exports must stamp the trailer with the latest time, not the last
        emitted one."""

        def run(tracer):
            tracer.add_observer(SlaMonitor(tracer, 0.15))  # 1 s slices
            for t in (0.5, 1.2):
                tracer.emit(DeliveryEvent(t, "bob", "tile:1:1", f"m{t}", "alice", 0.01, 2, "pub1"))

        buffered = Tracer()
        run(buffered)
        assert type(buffered.events[-1]) is SlaWindowEvent
        assert buffered.events[-1].t == 1.0
        buffered_path = tmp_path / "buffered.jsonl"
        dump_tracer(buffered, buffered_path)

        streamed_path = tmp_path / "streamed.jsonl"
        sink = StreamingJsonlSink(str(streamed_path))
        streamed = Tracer(sink=sink)
        run(streamed)
        sink.finalize(streamed)

        assert streamed_path.read_bytes() == buffered_path.read_bytes()
        trailer = read_trace(buffered_path)[-1]
        assert type(trailer) is MetricsEvent
        assert trailer.t == 1.2

    def test_gzip_decompresses_to_buffered_bytes(self, tmp_path):
        expected = _buffered_bytes(tmp_path)
        path = tmp_path / "streamed.jsonl.gz"
        sink = StreamingJsonlSink(str(path), chunk_events=7, compress=True)
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer)
        sink.finalize(tracer)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert gzip.decompress(path.read_bytes()) == expected

    def test_gzip_read_back_transparently(self, tmp_path):
        path = tmp_path / "streamed.jsonl.gz"
        sink = StreamingJsonlSink(str(path), compress=True)
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer, n=5)
        sink.finalize(tracer)
        plain = Tracer()
        _emit_sample_run(plain, n=5)
        plain_path = tmp_path / "plain.jsonl"
        dump_tracer(plain, plain_path)
        assert read_trace(path) == read_trace(plain_path)


class TestPinnedBytes:
    #: sha256 of the chaos smoke run's streamed trace.  The golden digests
    #: (``tests/check``) hash ``tracer.events`` of runs without an SLA
    #: threshold: they see neither the ``sla_*`` events nor the metrics
    #: trailer.  This file has both, so a change to the emit path, the SLA
    #: monitor or an instrument that moves a byte moves this value.  So does
    #: a change to the simulation itself: it moved when the broker began
    #: fanning a publication out on its arrival, which draws the fan-out's
    #: WAN latency and emits its ``fanout`` event there, not at the CPU's
    #: completion.
    SMOKE_TRACE_SHA256 = "55c7cb263564f316365431fe7a4d2c3a30b5753493f8d579e72b3dbed41bcd26"

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "buffered"])
    def test_chaos_smoke_trace_is_pinned(self, tmp_path, streamed):
        from repro.experiments.chaos import ChaosScenarioConfig, run_chaos

        path = tmp_path / "smoke.jsonl"
        sink = StreamingJsonlSink(str(path)) if streamed else None
        tracer = Tracer(sink=sink)
        run_chaos(ChaosScenarioConfig.smoke(), tracer=tracer)
        if sink is not None:
            sink.finalize(tracer)
        else:
            dump_tracer(tracer, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SMOKE_TRACE_SHA256


class TestRotation:
    def test_segments_concatenate_to_full_trace(self, tmp_path):
        path = tmp_path / "rot.jsonl"
        sink = StreamingJsonlSink(str(path), chunk_events=4, rotate_events=30)
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer)  # 101 events + trailer
        written = sink.finalize(tracer)

        segments = trace_segments(path)
        assert len(segments) > 1
        events = read_trace_segments(path)
        assert len(events) == written
        # Same content as an unrotated buffered dump.
        reference = Tracer()
        _emit_sample_run(reference)
        ref_path = tmp_path / "ref.jsonl"
        dump_tracer(reference, ref_path)
        assert events == read_trace(ref_path)

    def test_a_chunk_larger_than_the_rotation_splits_at_exact_boundaries(self, tmp_path):
        expected = _buffered_bytes(tmp_path)
        path = tmp_path / "rot.jsonl"
        sink = StreamingJsonlSink(str(path), chunk_events=50, rotate_events=7)
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer)
        written = sink.finalize(tracer)

        assert written == 102  # 101 events + the metrics trailer
        segments = trace_segments(path)
        assert sink.segments == segments
        assert len(segments) == 15  # ceil(102 / 7)
        header, *body = expected.splitlines(keepends=True)
        for index, segment in enumerate(segments):
            assert segment.read_bytes() == header + b"".join(body[7 * index : 7 * index + 7])

    def test_each_segment_standalone_readable(self, tmp_path):
        path = tmp_path / "rot.jsonl"
        sink = StreamingJsonlSink(str(path), rotate_events=25)
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer)
        sink.finalize(tracer)
        for segment in trace_segments(path):
            assert read_trace(segment)  # each has its own valid header


class TestBoundedMemory:
    def test_sink_backed_tracer_keeps_no_events(self, tmp_path):
        sink = StreamingJsonlSink(str(tmp_path / "t.jsonl"))
        tracer = Tracer(sink=sink)
        _emit_sample_run(tracer)
        assert tracer.events == []
        assert not tracer.events_kept

    def test_pending_buffer_bounded_by_chunk(self, tmp_path):
        sink = StreamingJsonlSink(str(tmp_path / "t.jsonl"), chunk_events=8)
        tracer = Tracer(sink=sink)
        for i in range(100):
            tracer.emit(ServerReadyEvent(float(i), f"s{i}"))
            assert sink.pending_events < 8
        sink.finalize(tracer)

    def test_events_written_counts_pending_events(self, tmp_path):
        sink = StreamingJsonlSink(str(tmp_path / "t.jsonl"), chunk_events=8)
        tracer = Tracer(sink=sink)
        for i in range(5):
            tracer.emit(ServerReadyEvent(float(i), f"s{i}"))
        assert (sink.events_written, sink.pending_events) == (5, 5)
        for i in range(5, 10):
            tracer.emit(ServerReadyEvent(float(i), f"s{i}"))
        assert (sink.events_written, sink.pending_events) == (10, 2)
        sink.close()
        assert sink.events_written == 10

    def test_tee_mode_keeps_events_too(self, tmp_path):
        sink = StreamingJsonlSink(str(tmp_path / "t.jsonl"))
        tracer = Tracer(sink=sink, keep_events=True)
        _emit_sample_run(tracer, n=3)
        assert len(tracer.events) == 7
        assert tracer.events_kept


class TestLifecycle:
    def test_emit_after_close_raises(self, tmp_path):
        sink = StreamingJsonlSink(str(tmp_path / "t.jsonl"))
        tracer = Tracer(sink=sink)
        tracer.emit(ServerReadyEvent(0.0, "pub1"))
        sink.finalize(tracer)
        with pytest.raises(ValueError, match="closed"):
            tracer.emit(ServerReadyEvent(1.0, "pub2"))

    def test_bufferless_tracer_without_sink_rejected(self):
        with pytest.raises(ValueError):
            Tracer(keep_events=False)

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with StreamingJsonlSink(str(path)) as sink:
            Tracer(sink=sink).emit(ServerReadyEvent(0.0, "pub1"))
        assert read_trace(path) == [ServerReadyEvent(0.0, "pub1")]
