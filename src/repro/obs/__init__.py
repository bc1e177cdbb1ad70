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
* :mod:`repro.obs.recovery` -- a crash's time-to-recover, read live by
  the chaos scenario and offline by ``summary``;
* :mod:`repro.obs.export` + :mod:`repro.obs.cli` -- JSONL export with a
  stable schema and the ``python -m repro.obs summary|sla`` analysis
  commands.

What a run costs is read from the registry's counters and, per Python
call, from the perf ledger's counting pass (``benchmarks/ledger/run.py``).
"""

from repro.obs.export import (
    dump_tracer,
    iter_trace,
    read_trace,
    read_trace_segments,
    write_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
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
    "write_trace",
]
