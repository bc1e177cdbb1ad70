"""JSONL export round-trip tests: every event type survives write -> read."""

import importlib
import json
import pkgutil
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.obs.export import (
    HEADER_TYPE,
    SCHEMA_VERSION,
    dump_tracer,
    event_to_json,
    header_json,
    read_trace,
    write_trace,
)
from repro.obs.trace import (
    EVENT_TYPES,
    CausalTimeoutEvent,
    ClientFailoverEvent,
    ClientReconnectEvent,
    DecommissionEvent,
    DeliveryEvent,
    FanoutEvent,
    LinkFaultEvent,
    LlaStallEvent,
    LoadReportEvent,
    LoadSnapshotEvent,
    MetricsEvent,
    MigrationSettledEvent,
    MigrationStartEvent,
    PartitionEvent,
    PartitionHealedEvent,
    PlanAppliedEvent,
    PlanGeneratedEvent,
    PlanMissEvent,
    PlanPushedEvent,
    PlanRepairDoneEvent,
    PlanRepairStartEvent,
    ProfileEvent,
    PublishEvent,
    ServerCrashEvent,
    ServerFailureConfirmedEvent,
    ReplayEvent,
    ReplayGapEvent,
    ServerReadyEvent,
    ServerRestartEvent,
    ServerResurrectedEvent,
    ServerSuspectEvent,
    SlaViolationEndEvent,
    SlaViolationStartEvent,
    SlaWindowEvent,
    SpawnRequestEvent,
    SubscribeEvent,
    SwitchNoticeEvent,
    TraceEvent,
    Tracer,
    UnsubscribeEvent,
    field_names,
)

#: One instance of every event type, exercising tuples, dicts and None.
SAMPLE_EVENTS = [
    PublishEvent(0.5, "m1", "tile:1:1", "alice", 3, ("pub1", "pub2"), 120),
    FanoutEvent(0.6, "pub1", "tile:1:1", "m1", 7, 298),
    FanoutEvent(0.6, "pub1", "tile:1:1", None, 0, 298),  # msg-id-less payload
    DeliveryEvent(0.7, "bob", "tile:1:1", "m1", "alice", 0.012, 3, "pub1"),
    DeliveryEvent(0.7, "bob", "tile:1:1", "m1", "alice", 0.012, 3),  # v2: no server
    SubscribeEvent(1.0, "bob", "tile:1:1", ("pub1",)),
    UnsubscribeEvent(2.0, "bob", "tile:1:1"),
    PlanMissEvent(2.1, "bob", "ghost", "pub2"),
    LoadReportEvent(3.0, "pub1", 0.82, 0.4, 12),
    LoadSnapshotEvent(3.5, {"pub1": 0.82, "pub2": 0.11}),
    PlanGeneratedEvent(4.0, 4, ("tile:1:1",), ("pub3",), True),
    PlanPushedEvent(4.0, 4, ("pub1", "pub2")),
    MigrationStartEvent(4.0, 4, "tile:1:1", ("pub1",), ("pub2",), "all-subscribers"),
    MigrationSettledEvent(4.4, "tile:1:1", "pub1"),
    SpawnRequestEvent(5.0),
    ServerReadyEvent(10.0, "pub4"),
    DecommissionEvent(12.0, "pub3"),
    PlanAppliedEvent(4.1, "dispatcher@pub1", 4),
    SwitchNoticeEvent(4.2, "pub1", "tile:1:1", 4),
    # --- fault/recovery events (schema 2) ---
    ServerCrashEvent(30.0, "pub2"),
    ServerRestartEvent(60.0, "pub2"),
    PartitionEvent(31.0, "pub1", "pub2"),
    PartitionHealedEvent(41.0, "pub1", "pub2"),
    LinkFaultEvent(32.0, "pub1", "bob", 0.05, 0.02),
    LlaStallEvent(33.0, "pub1", True),
    ServerSuspectEvent(33.5, "pub2", 3.2),
    ServerFailureConfirmedEvent(35.0, "pub2", 5.1),
    ServerResurrectedEvent(61.0, "pub2"),
    PlanRepairStartEvent(35.0, "pub2", ("tile:1:1", "room:7")),
    PlanRepairDoneEvent(35.0, "pub2", 5),
    ClientFailoverEvent(36.0, "bob", "pub2", ("tile:1:1",)),
    ClientReconnectEvent(36.5, "bob", "tile:1:1", ("pub1",), 1),
    # --- reliable delivery tier events ---
    ReplayEvent(36.6, "pub1", "tile:1:1", "bob", 1, 4, 9, 6, 1212),
    ReplayGapEvent(36.7, "pub1", "tile:1:1", "bob", 1, 2, 3),
    CausalTimeoutEvent(36.8, "bob", "tile:1:1", 2),
    # --- telemetry v2 events (schema 3) ---
    SlaViolationStartEvent(37.0, "overall", 95.0, 0.15, 0.21, 812),
    SlaWindowEvent(38.0, "server:pub1", 400, 0.08, 0.21, 0.4, True),
    SlaWindowEvent(38.0, "channel:tile", 0, None, None, None, False),  # empty window
    SlaViolationEndEvent(39.0, "overall", 2.0, 0.21),
    ProfileEvent(60.0, {"version": 1, "total_events": 9, "subsystems": {}}),
    MetricsEvent(13.0, {"counters": {"x": 1.0}, "gauges": {}, "histograms": {}}),
]


def test_sample_covers_every_event_type():
    assert {type(e).TYPE for e in SAMPLE_EVENTS} == set(EVENT_TYPES)
    # Every event class anywhere in the package is registered, so nothing
    # the simulator can emit is dropped on read-back.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    pending, defined = [TraceEvent], set()
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro."):
                defined.add(sub)
    assert defined <= set(EVENT_TYPES.values()), sorted(
        cls.__name__ for cls in defined - set(EVENT_TYPES.values())
    )


class TestRoundTrip:
    def test_every_event_type_round_trips_losslessly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, SAMPLE_EVENTS) == len(SAMPLE_EVENTS)
        loaded = read_trace(path)
        assert loaded == SAMPLE_EVENTS  # dataclass equality, field for field

    def test_header_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [])
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"type": HEADER_TYPE, "schema": SCHEMA_VERSION}

    def test_dump_tracer_appends_metrics_trailer(self, tmp_path):
        tracer = Tracer()
        tracer.emit(ServerReadyEvent(2.0, "pub1"))
        tracer.metrics.counter("deliveries_total", server="pub1").inc(5)
        path = tmp_path / "trace.jsonl"
        count = dump_tracer(tracer, path)
        assert count == 2
        loaded = read_trace(path)
        assert isinstance(loaded[-1], MetricsEvent)
        assert loaded[-1].t == 2.0  # stamped with the last event's time
        assert loaded[-1].data["counters"]["deliveries_total{server=pub1}"] == 5


def reference_json(event):
    """What a trace line is defined to be; the writer must match it."""
    return json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))


#: Values that separate a hand-rolled encoder from ``json.dumps``.  They go
#: into *every* field of every event type, whatever its annotation says:
#: the encoder dispatches on the value it finds, not on the declaration.
TRICKY_VALUES = [
    "",
    "plain",
    "caf\u00e9 \u2603 \U0001f600",
    'quote " backslash \\ slash / \x00\x1f\x7f \n\t',
    0.0,
    -0.0,
    1e-320,
    1e22,
    1e16,
    123456789.123456789,
    float("nan"),
    float("inf"),
    float("-inf"),
    0,
    -1,
    2**63,
    -(2**80),
    True,
    False,
    None,
    (),
    ("a",),
    ("a", ("b", (), (1, 2.5, None, True)), "c"),
    ["a", ("b",)],
    {"b": 1, "a": {"z": (1, 2), "y": None, "x": float("nan")}},
    {},
]


class TestCompiledEncoder:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.TYPE)
    def test_sample_events_match_the_reference(self, event):
        assert event_to_json(event) == reference_json(event)

    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.TYPE)
    def test_tricky_values_in_every_field_match_the_reference(self, event):
        for name in field_names(type(event)):
            for value in TRICKY_VALUES:
                mutated = replace(event, **{name: value})
                assert event_to_json(mutated) == reference_json(mutated), (name, value)

    def test_bool_in_an_int_field_is_not_an_int(self):
        event = ReplayEvent(1.0, "pub1", "tile:1:1", "bob", True, False, 1, 0, 0)
        line = event_to_json(event)
        assert '"epoch":true' in line and '"from_seq":false' in line
        assert line == reference_json(event)

    def test_metrics_event_with_nested_dicts(self):
        tracer = Tracer()
        tracer.metrics.counter("z_total", server="pub2", channel_class="tile").inc(3)
        tracer.metrics.histogram("lat_s", channel_class="tile").observe(0.25)
        event = MetricsEvent(t=2.0, data=tracer.metrics.snapshot())
        assert event_to_json(event) == reference_json(event)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        values=st.lists(
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(),
                lambda inner: st.lists(inner, max_size=3).map(tuple)
                | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                max_leaves=8,
            ),
            min_size=9,
            max_size=9,
        ),
    )
    def test_arbitrary_values_match_the_reference(self, data, values):
        event = data.draw(st.sampled_from(SAMPLE_EVENTS))
        names = field_names(type(event))
        mutated = replace(event, **dict(zip(names, values)))
        assert event_to_json(mutated) == reference_json(mutated)


class TestReaderRobustness:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "delivery"}\n')
        with pytest.raises(ValueError, match="header"):
            read_trace(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type": "trace_header", "schema": 99}\n')
        with pytest.raises(ValueError, match="schema"):
            read_trace(path)

    def test_unknown_event_types_skipped(self, tmp_path):
        path = tmp_path / "forward.jsonl"
        path.write_text(
            '{"type": "trace_header", "schema": 1}\n'
            '{"type": "hologram", "t": 1.0, "payload": "?"}\n'
            '{"type": "server_ready", "t": 2.0, "server": "pub1"}\n'
        )
        loaded = read_trace(path)
        assert loaded == [ServerReadyEvent(2.0, "pub1")]

    def test_malformed_event_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"type": "trace_header", "schema": 1}\n'
            '{"type": "server_ready", "t": 2.0}\n'  # missing "server"
        )
        with pytest.raises(ValueError, match=":2:"):
            read_trace(path)

    @pytest.mark.parametrize("keep", [31, 60], ids=["header", "body"])
    def test_line_cut_short_rejected_with_line_number(self, tmp_path, keep):
        """A writer killed mid-line: the header (31 of its 37 bytes), or the
        first event's line."""
        path = tmp_path / "cut.jsonl"
        write_trace(path, SAMPLE_EVENTS)
        path.write_bytes(path.read_bytes()[:keep])
        line_no = 1 if keep < len(header_json()) else 2
        with pytest.raises(ValueError, match=rf"cut\.jsonl:{line_no}: malformed line"):
            read_trace(path)

    def test_line_that_is_not_an_object_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(header_json() + "\n[1, 2]\n")
        with pytest.raises(ValueError, match=r"t\.jsonl:2: malformed line"):
            read_trace(path)

    def test_gzip_member_cut_short_rejected_with_location(self, tmp_path):
        import gzip

        path = tmp_path / "cut.jsonl.gz"
        lines = [header_json()] + [event_to_json(e) for e in SAMPLE_EVENTS]
        whole = gzip.compress(("\n".join(lines) + "\n").encode())
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(ValueError, match=r"cut\.jsonl\.gz:\d+: malformed gzip stream"):
            read_trace(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '{"type": "trace_header", "schema": 1}\n'
            "\n"
            '{"type": "spawn_request", "t": 1.0}\n'
        )
        assert read_trace(path) == [SpawnRequestEvent(1.0)]
