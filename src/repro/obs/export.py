"""JSONL trace export and loading.

Schema (one JSON object per line):

* Line 1 is a header: ``{"type": "trace_header", "schema": 3}``.
* Every following line is one event: ``{"type": "<tag>", "t": <float>, ...}``
  where ``<tag>`` is a key of :data:`repro.obs.trace.EVENT_TYPES` and the
  remaining keys are that event dataclass's fields (tuples serialized as
  JSON arrays).
* When exported through :func:`dump_tracer` (or a streaming sink finalized
  with :func:`trailer_events`), the trace ends with an optional ``profile``
  event and a ``metrics`` event embedding a full registry snapshot.

An event line is ``json.dumps(event.to_dict(), sort_keys=True,
separators=(",", ":"))`` byte for byte, but the writer never builds that
dict: :func:`line_encoder` compiles, once per event class, a function that
joins the class's pre-rendered ``"key":`` fragments with the field values.

The loader reconstructs typed event objects, so a write/read cycle is
lossless (``loaded == original`` field for field); unknown event types in
*newer* traces are skipped rather than failing, keeping old readers usable.
Readers transparently handle gzip-compressed traces (sniffed by magic
bytes) and rotated segment files (``trace.jsonl``, ``trace.jsonl.1``, ...)
written by :class:`repro.obs.sink.StreamingJsonlSink`.
"""

from __future__ import annotations

import functools
import gzip
import json
import zlib
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, List, Tuple, Type, Union

from repro.obs.trace import (
    EVENT_TYPES,
    MetricsEvent,
    ProfileEvent,
    TraceEvent,
    Tracer,
    field_names,
)

#: Current writer schema.  v2 added the fault/recovery event types of the
#: ``repro.faults`` subsystem; v3 adds the live-SLA events (sla_violation_*,
#: sla_window), the profiler snapshot event and DeliveryEvent.server.
SCHEMA_VERSION = 3
#: Schemas this reader accepts.  v1/v2 traces contain a strict subset of
#: the v3 event types (and v3-grown fields have defaults), so they load
#: unchanged.
SUPPORTED_SCHEMAS = frozenset({1, 2, 3})
HEADER_TYPE = "trace_header"

#: GZIP magic bytes, for transparent sniffing on the read side.
_GZIP_MAGIC = b"\x1f\x8b"


#: The one general-purpose encoder, for values the line encoders do not
#: render themselves (``json.dumps`` with these arguments builds a fresh
#: encoder object on every call).
_encode_other = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: The item types of a tuple the line encoders render themselves.
_STR_ONLY = frozenset({str})


@functools.cache
def line_encoder(cls: Type[TraceEvent]) -> Callable[[TraceEvent], str]:
    """The compiled ``event -> JSON line`` function of one event class.

    Everything static is worked out here, once: the sorted key order (the
    constant ``"type"`` member sorts in among the field names) and the
    escaped ``,"key":`` text in front of each value.  Per event, the
    returned function renders the values and joins.  A value is rendered
    by its *exact* type -- ``bool`` is an ``int`` to ``isinstance`` but
    ``true`` to JSON -- with the same C primitives the json module uses for
    ``str``, ``int`` and finite ``float``, and a tuple of nothing but
    ``str`` (publish targets, subscription servers) as the array of them;
    any other value (mixed or nested tuples, dict payloads, non-finite
    floats, subclasses) goes to the shared encoder, which is byte-exact by
    construction.
    """
    plan: List[Tuple[str, str]] = []
    static = "{"
    for index, name in enumerate(sorted(field_names(cls) + ("type",))):
        static += ("," if index else "") + encode_basestring_ascii(name) + ":"
        if name == "type":
            static += encode_basestring_ascii(cls.TYPE)
        else:
            plan.append((static, name))
            static = ""
    tail = static + "}"
    float_repr = float.__repr__
    int_repr = int.__repr__

    def encode(event: TraceEvent) -> str:
        parts: List[str] = []
        for fragment, name in plan:
            value = getattr(event, name)
            kind = type(value)
            if kind is str:
                text = encode_basestring_ascii(value)
            elif kind is float and isfinite(value):
                text = float_repr(value)
            elif kind is int:
                text = int_repr(value)
            elif value is None:
                text = "null"
            elif value is True:
                text = "true"
            elif value is False:
                text = "false"
            elif kind is tuple and _STR_ONLY.issuperset(map(type, value)):
                text = "[" + ",".join(map(encode_basestring_ascii, value)) + "]"
            else:
                text = _encode_other(value)
            parts.append(fragment)
            parts.append(text)
        parts.append(tail)
        return "".join(parts)

    return encode


def event_to_json(event: TraceEvent) -> str:
    """One trace line (no newline) for ``event``."""
    return line_encoder(type(event))(event)


def header_json() -> str:
    """The schema header line (shared by buffered and streaming writers)."""
    return json.dumps({"type": HEADER_TYPE, "schema": SCHEMA_VERSION})


def write_trace(path: Union[str, Path], events: Iterable[TraceEvent]) -> int:
    """Write ``events`` as JSONL; returns the number of events written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header_json() + "\n")
        for event in events:
            fh.write(event_to_json(event) + "\n")
            count += 1
    return count


def trailer_events(tracer: Tracer) -> List[TraceEvent]:
    """End-of-run events appended after the timeline.

    A ``profile`` snapshot (when a profiler is attached) followed by the
    ``metrics`` registry snapshot, both stamped with the latest event time
    (``tracer.last_t``, not the last *emitted* event's: an SLA boundary
    event is emitted after the delivery that crossed the boundary, with the
    earlier boundary time).  Shared by :func:`dump_tracer` and
    streaming-sink finalization so both produce byte-identical output.
    """
    t = tracer.last_t
    trailer: List[TraceEvent] = []
    if tracer.profiler is not None:
        trailer.append(ProfileEvent(t=t, data=tracer.profiler.snapshot()))
    trailer.append(MetricsEvent(t=t, data=tracer.metrics.snapshot()))
    return trailer


def dump_tracer(tracer: Tracer, path: Union[str, Path]) -> int:
    """Export a tracer's buffered events plus the end-of-run trailer.

    For sink-backed (streaming) tracers use
    :meth:`repro.obs.sink.StreamingJsonlSink.finalize` instead -- the
    events have already left the building.
    """
    return write_trace(path, list(tracer.events) + trailer_events(tracer))


def _open_for_read(path: Union[str, Path]) -> IO[str]:
    """Open a trace for reading, transparently decompressing gzip."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def iter_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream one trace file's events without materializing the list.

    Same validation semantics as :func:`read_trace` (header checked,
    unknown event types skipped); a malformed line -- cut short, not a JSON
    object, fields that do not fit the event -- or a gzip member cut short
    raises ``ValueError`` naming the file and the line.
    """
    line_no = 0
    with _open_for_read(path) as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line and line_no > 1:
                    continue
                try:
                    data = json.loads(line)
                    tag = data.get("type", "")
                    cls = EVENT_TYPES.get(tag)
                except (ValueError, AttributeError, TypeError) as exc:
                    raise ValueError(f"{path}:{line_no}: malformed line: {exc}") from exc
                if line_no == 1:
                    if tag != HEADER_TYPE:
                        raise ValueError(f"{path}: missing trace header")
                    if data.get("schema") not in SUPPORTED_SCHEMAS:
                        raise ValueError(
                            f"{path}: unsupported schema {data.get('schema')!r} "
                            f"(reader supports {sorted(SUPPORTED_SCHEMAS)})"
                        )
                    continue
                if cls is None:
                    continue  # forward compatibility: newer writers add types
                try:
                    yield cls.from_dict(data)
                except (KeyError, TypeError) as exc:  # noqa: PERF203 - per-line diagnostics
                    raise ValueError(f"{path}:{line_no}: malformed event: {exc}") from exc
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ValueError(f"{path}:{line_no + 1}: malformed gzip stream: {exc}") from exc
    if not line_no:
        raise ValueError(f"{path}: empty trace file")


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL trace back into typed event objects.

    Validates the header, tolerates (skips) event types this version does
    not know, and raises ``ValueError`` on malformed input.
    """
    return list(iter_trace(path))


def trace_segments(path: Union[str, Path]) -> List[Path]:
    """``path`` plus any rotation segments ``path.1``, ``path.2``, ... in order."""
    base = Path(path)
    segments = [base]
    index = 1
    while True:
        candidate = base.with_name(f"{base.name}.{index}")
        if not candidate.exists():
            break
        segments.append(candidate)
        index += 1
    return segments


def iter_trace_segments(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream events across a (possibly rotated) trace in segment order."""
    for segment in trace_segments(path):
        yield from iter_trace(segment)


def read_trace_segments(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a (possibly rotated) trace into one event list."""
    return list(iter_trace_segments(path))
