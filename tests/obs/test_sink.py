"""Streaming trace sink tests: byte-equivalence, bounded memory, lifecycle."""

import gzip
import hashlib

import pytest

from repro.obs.export import dump_tracer, read_trace
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
            tracer.attach_sla(SlaMonitor(tracer, 0.15))  # 1 s slices
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
    #: a change to the simulation itself.  It last moved at trace schema 4:
    #: with the ``arrival`` / ``server_subscribe`` lines, ``replayed`` on
    #: deliveries and ``pub_seq`` / ``deps`` on publications removed and the
    #: header set back to 3, the file equals the schema-3 one byte for byte.
    SMOKE_TRACE_SHA256 = "3fc29f009d5cbeb7b9149202bf794234bd6743e8b9978aad92ab86445fd6e052"

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
            assert len(sink.pending) < 8
        sink.finalize(tracer)

    def test_events_written_counts_pending_events(self, tmp_path):
        sink = StreamingJsonlSink(str(tmp_path / "t.jsonl"), chunk_events=8)
        tracer = Tracer(sink=sink)
        for i in range(5):
            tracer.emit(ServerReadyEvent(float(i), f"s{i}"))
        assert (sink.events_written, len(sink.pending)) == (5, 5)
        for i in range(5, 10):
            tracer.emit(ServerReadyEvent(float(i), f"s{i}"))
        assert (sink.events_written, len(sink.pending)) == (10, 2)
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
