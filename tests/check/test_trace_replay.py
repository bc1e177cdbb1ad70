"""Schema-2 trace replay: a scenario's full trace survives disk round-trips.

Minimized reproducers are debugged from their JSONL traces, so a trace a
check run writes must load back into the identical typed event sequence
-- including the fault/recovery event types that only faulted runs emit.
"""

from __future__ import annotations

import pytest

from repro.check import generate_scenario, run_scenario
from repro.check.cli import main
from repro.obs.export import event_to_json, read_trace, write_trace
from repro.obs.trace import MetricsEvent, PlanRepairStartEvent, ServerCrashEvent
from tests.helpers import crash_clusters_at


def test_faulted_run_trace_round_trips_through_disk(tmp_path):
    # Seed 0's profile is hot-skew + double-crash: its trace exercises the
    # schema-2 fault/recovery event types, not just the steady-state ones.
    result = run_scenario(generate_scenario(0))
    path = tmp_path / "run.jsonl"
    count = write_trace(path, result.tracer.events)
    assert count == len(result.tracer.events)

    loaded = read_trace(path)
    assert loaded == list(result.tracer.events)
    # The loaded events re-serialize to the byte-identical trace body.
    relined = ("\n".join(event_to_json(e) for e in loaded) + "\n").encode("utf-8")
    assert relined == result.trace_bytes()

    types = {type(e) for e in loaded}
    assert ServerCrashEvent in types
    assert PlanRepairStartEvent in types


def test_check_run_that_raises_leaves_the_events_leading_up_to_it(tmp_path, monkeypatch):
    seen = crash_clusters_at(monkeypatch, 2.0)
    path = tmp_path / "crashed.jsonl"
    with pytest.raises(RuntimeError, match="workload callback failed"):
        main(["--seed", "0", "--trace", str(path)])
    events = read_trace(path)
    assert len(events) == seen["emitted"] > 0
    assert events[-1].t <= 2.0
    assert not any(type(e) is MetricsEvent for e in events)
