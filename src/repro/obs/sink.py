"""Bounded-memory streaming trace sinks.

A buffered tracer holds every event in RAM until export, which a
multi-million-event run cannot afford.  A :class:`TraceSink` receives
events *as they are emitted* and the :class:`StreamingJsonlSink` writes
them incrementally:

* events are serialized immediately (by the event class's compiled line
  encoder) and buffered as strings, flushed to disk every
  ``chunk_events`` lines -- memory stays O(chunk), not O(run);
* output is byte-equivalent to the buffered :func:`repro.obs.export.dump_tracer`
  path (same header, same serialization, same trailer via
  :meth:`finalize`), so downstream tooling cannot tell the difference;
* optional gzip compression (``compress=True``) and rotation every
  ``rotate_events`` events into ``path``, ``path.1``, ``path.2``, ...
  (each segment self-contained with its own schema header).

Usage::

    sink = StreamingJsonlSink("trace.jsonl", chunk_events=4096)
    tracer = Tracer(sink=sink)           # buffering off by default
    ... run the simulation ...
    sink.finalize(tracer)                # trailer + flush + close

A run that raises never reaches ``finalize``; its owner calls
:meth:`StreamingJsonlSink.close` in a ``finally`` so the buffered tail --
the events leading up to the failure -- reaches the disk, without a
trailer.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, List, Optional, Protocol, Union

from repro.obs.export import header_json, line_encoder, trailer_events
from repro.obs.trace import TraceEvent, Tracer


class TraceSink(Protocol):
    """Anything that can receive trace events incrementally."""

    def emit(self, event: TraceEvent) -> None:
        """Accept one event (called from the tracer's hot path)."""

    def close(self) -> None:
        """Flush and release resources; no emits may follow."""


class StreamingJsonlSink:
    """Incremental JSONL writer with chunked flush, gzip and rotation."""

    DEFAULT_CHUNK = 4096

    def __init__(
        self,
        path: Union[str, Path],
        *,
        chunk_events: int = DEFAULT_CHUNK,
        compress: bool = False,
        rotate_events: Optional[int] = None,
    ) -> None:
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1: {chunk_events!r}")
        if rotate_events is not None and rotate_events < 1:
            raise ValueError(f"rotate_events must be >= 1: {rotate_events!r}")
        self.path = Path(path)
        self._chunk = chunk_events
        self._compress = compress
        self._rotate = rotate_events
        self._buffer: List[str] = []
        self._fh: Optional[IO[str]] = None
        self._segment_events = 0
        #: Total events written (all segments, excluding headers).
        self.events_written = 0
        #: Segment paths in write order (``path`` first).
        self.segments: List[Path] = []
        self._open_segment()

    # ------------------------------------------------------------------
    # TraceSink interface
    # ------------------------------------------------------------------
    # repro: scope[hot]
    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"{self.path}: sink is closed")
        if self._rotate is not None and self._segment_events >= self._rotate:
            self._flush()
            self._close_fh()
            self._open_segment()
        self._buffer.append(line_encoder(type(event))(event))
        self._segment_events += 1
        self.events_written += 1
        if len(self._buffer) >= self._chunk:
            self._flush()

    def close(self) -> None:
        if self._fh is None:
            return
        self._flush()
        self._close_fh()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Events currently held in memory (bounded by ``chunk_events``)."""
        return len(self._buffer)

    def finalize(self, tracer: Tracer) -> int:
        """Append the end-of-run trailer (profile + metrics) and close.

        Returns the total number of events written across all segments.
        The trailer comes from :func:`repro.obs.export.trailer_events`, the
        same helper :func:`~repro.obs.export.dump_tracer` uses, which keeps
        streamed and buffered traces byte-equivalent.
        """
        for event in trailer_events(tracer):
            self.emit(event)
        self.close()
        return self.events_written

    def _open_segment(self) -> None:
        if not self.segments:
            segment = self.path
        else:
            segment = self.path.with_name(f"{self.path.name}.{len(self.segments)}")
        if self._compress:
            self._fh = gzip.open(segment, "wt", encoding="utf-8")
        else:
            self._fh = open(segment, "w", encoding="utf-8")
        self._fh.write(header_json() + "\n")
        self.segments.append(segment)
        self._segment_events = 0

    def _flush(self) -> None:
        if self._buffer and self._fh is not None:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def _close_fh(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StreamingJsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
