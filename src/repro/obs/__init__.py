"""Observability: the flight recorder every component can emit into.

Six pieces:

* :mod:`repro.obs.trace` -- typed, timestamped trace events and the
  :class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.trace.NullTracer`
  pair components emit through;
* :mod:`repro.obs.metrics` -- the label-aware counter / gauge / histogram
  registry shared through the tracer;
* :mod:`repro.obs.sink` -- bounded-memory streaming trace sinks (chunked
  JSONL, optional gzip and rotation), byte-equivalent to buffered export;
* :mod:`repro.obs.sla` -- the live sliding-window SLA monitor;
* :mod:`repro.obs.profile` -- the deterministic sim-profiler (event counts
  and virtual-time attribution, never wall clock);
* :mod:`repro.obs.export` + :mod:`repro.obs.cli` -- JSONL export with a
  stable schema and the ``python -m repro.obs summary|sla|profile``
  analysis commands.
"""

from repro.obs.export import (
    dump_tracer,
    iter_trace,
    read_trace,
    read_trace_segments,
    write_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import SimProfiler, render_profile
from repro.obs.sink import StreamingJsonlSink, TraceSink
from repro.obs.sla import SlaMonitor, SlidingHistogram
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, channel_class

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SimProfiler",
    "SlaMonitor",
    "SlidingHistogram",
    "StreamingJsonlSink",
    "TraceSink",
    "Tracer",
    "channel_class",
    "dump_tracer",
    "iter_trace",
    "read_trace",
    "read_trace_segments",
    "render_profile",
    "write_trace",
]
