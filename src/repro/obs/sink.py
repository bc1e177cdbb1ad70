"""Bounded-memory streaming trace sinks.

A buffered tracer holds every event in RAM until export, which a
multi-million-event run cannot afford.  A :class:`TraceSink` receives
events *as they are emitted* and the :class:`StreamingJsonlSink` writes
them incrementally:

* the tracer appends each event to the sink's ``pending`` chunk -- one
  list append, no frame of the sink's -- and calls :meth:`flush` when it
  holds ``chunk_events``; the flush renders the chunk in one pass
  (:func:`repro.obs.export.write_events`) and writes it line by line, so
  memory stays O(chunk), not O(run);
* output is byte-equivalent to the buffered :func:`repro.obs.export.dump_tracer`
  path (same header, same serialization, same trailer via
  :meth:`finalize`), so downstream tooling cannot tell the difference;
* optional gzip compression (``compress=True``).

Usage::

    sink = StreamingJsonlSink("trace.jsonl", chunk_events=4096)
    tracer = Tracer(sink=sink)           # buffering off by default
    ... run the simulation ...
    sink.finalize(tracer)                # trailer + flush + close

A run that raises never reaches ``finalize``; its owner calls
:meth:`StreamingJsonlSink.close` in a ``finally`` so the pending tail --
the events leading up to the failure -- reaches the disk, without a
trailer.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, List, Optional, Protocol, Union

from repro.obs.export import header_json, trailer_events, write_events
from repro.obs.trace import TraceEvent, Tracer


class TraceSink(Protocol):
    """Anything that can receive trace events incrementally.

    :meth:`repro.obs.trace.Tracer.emit` appends each event to ``pending``
    and calls :meth:`flush` once it holds ``chunk_events`` of them.
    """

    pending: List[TraceEvent]
    chunk_events: int

    def flush(self) -> None:
        """Write out and empty ``pending``."""

    def close(self) -> None:
        """Flush and release resources; no emits may follow."""


class _ClosedChunk:
    """A closed sink's ``pending``: empty, and adding to it raises."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path

    def __len__(self) -> int:
        return 0

    def append(self, event: object) -> None:
        raise ValueError(f"{self.path}: sink is closed")

    extend = append


class StreamingJsonlSink:
    """Incremental JSONL writer with chunked flush and optional gzip."""

    DEFAULT_CHUNK = 4096

    def __init__(
        self,
        path: Union[str, Path],
        *,
        chunk_events: int = DEFAULT_CHUNK,
        compress: bool = False,
    ) -> None:
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1: {chunk_events!r}")
        self.path = Path(path)
        self.chunk_events = chunk_events
        #: Accepted events not yet written (fewer than ``chunk_events``
        #: between flushes); a :class:`_ClosedChunk` once closed.
        self.pending: List[TraceEvent] = []
        self._flushed = 0
        self._fh: Optional[IO[str]] = (
            gzip.open(self.path, "wt", encoding="utf-8")
            if compress
            else open(self.path, "w", encoding="utf-8")
        )
        self._fh.write(header_json() + "\n")

    # ------------------------------------------------------------------
    # TraceSink interface
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write the pending chunk."""
        pending = self.pending
        if not pending:
            return
        assert self._fh is not None
        write_events(self._fh, pending)
        self._flushed += len(pending)
        pending.clear()

    def close(self) -> None:
        if self._fh is None:
            return
        self.flush()
        self._fh.close()
        self._fh = None
        self.pending = _ClosedChunk(self.path)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def events_written(self) -> int:
        """Every event accepted so far (pending ones included, the
        header excluded)."""
        return self._flushed + len(self.pending)

    def finalize(self, tracer: Tracer) -> int:
        """Append the end-of-run trailer (the metrics snapshot) and close.

        Returns the total number of events written.
        The trailer comes from :func:`repro.obs.export.trailer_events`, the
        same helper :func:`~repro.obs.export.dump_tracer` uses, which keeps
        streamed and buffered traces byte-equivalent.
        """
        self.pending.extend(trailer_events(tracer))
        self.close()
        return self.events_written

    def __enter__(self) -> "StreamingJsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
