"""Tests for the tracer: channel classes, event capture on a live cluster."""

import pytest

from repro.broker.commands import SubscribeCmd
from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.obs.export import dump_tracer, read_trace
from repro.obs.sink import StreamingJsonlSink
from repro.obs.sla import SlaMonitor
from repro.obs.trace import (
    NULL_TRACER,
    DeliveryEvent,
    FanoutEvent,
    MetricsEvent,
    NullTracer,
    PublishEvent,
    ServerReadyEvent,
    SlaWindowEvent,
    SubscribeEvent,
    Tracer,
    UnsubscribeEvent,
    channel_class,
)
from repro.sim.kernel import Simulator
from tests.helpers import python_calls_by_file, python_calls_by_function


class TestChannelClass:
    def test_prefix_before_colon(self):
        assert channel_class("tile:3:4") == "tile"

    def test_trailing_digits_stripped(self):
        assert channel_class("room17") == "room"

    def test_plain_name_unchanged(self):
        assert channel_class("telemetry") == "telemetry"

    def test_all_digits_kept_verbatim(self):
        assert channel_class("1234") == "1234"


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True

    def test_null_hooks_are_noops(self):
        t = NullTracer()
        t.emit(SubscribeEvent(0.0, "c", "ch", ("s",)))
        t.attach_kernel(object())  # must not touch the object
        assert t.events == []


def _traced_cluster():
    tracer = Tracer()
    cluster = DynamothCluster(
        seed=7, initial_servers=2, balancer=BALANCER_NONE, tracer=tracer
    )
    return cluster, tracer


class TestTracedRun:
    def test_publication_lifecycle_events(self):
        cluster, tracer = _traced_cluster()
        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("news", lambda ch, body, env: got.append(body))
        cluster.run_for(1.0)
        pub = cluster.create_client("pub")
        pub.publish("news", "hello", payload_size=50)
        cluster.run_for(2.0)

        assert got == ["hello"]
        publishes = [e for e in tracer.events if isinstance(e, PublishEvent)]
        fanouts = [e for e in tracer.events if isinstance(e, FanoutEvent)]
        deliveries = [e for e in tracer.events if isinstance(e, DeliveryEvent)]
        assert len(publishes) == 1
        assert publishes[0].channel == "news"
        assert publishes[0].sender == "pub"
        assert len(fanouts) >= 1
        assert any(f.fanout == 1 for f in fanouts)
        assert len(deliveries) == 1
        delivery = deliveries[0]
        assert delivery.client == "sub"
        assert delivery.msg_id == publishes[0].msg_id
        assert delivery.latency_s > 0.0
        # Event timestamps are monotonically consistent with causality.
        assert publishes[0].t <= fanouts[0].t <= delivery.t

    def test_subscribe_unsubscribe_events(self):
        cluster, tracer = _traced_cluster()
        client = cluster.create_client("c1")
        client.subscribe("a", lambda *a: None)
        cluster.run_for(1.0)
        client.unsubscribe("a")
        cluster.run_for(1.0)
        subs = [e for e in tracer.events if isinstance(e, SubscribeEvent)]
        unsubs = [e for e in tracer.events if isinstance(e, UnsubscribeEvent)]
        assert [e.channel for e in subs] == ["a"]
        assert subs[0].client == "c1"
        assert [e.channel for e in unsubs] == ["a"]

    def test_a_traced_send_runs_no_obs_frame(self):
        """A node's egress is counted on its NIC (``EgressPort``): tracing
        adds no frame to a plain send, nor a per-node trailer row."""
        cluster, tracer = _traced_cluster()
        client = cluster.create_client("c")
        home = cluster.plan.ring.lookup("news")
        calls = python_calls_by_function(
            lambda: client.send(home, SubscribeCmd("news"), SubscribeCmd.WIRE_SIZE)
        )
        assert calls and not [key for key in calls if "/repro/obs/" in key[0]]
        cluster.run_for(1.0)
        assert cluster.servers[home].subscriber_count("news") == 1
        assert "messages_sent_total" not in str(tracer.metrics.snapshot())

    def test_kernel_metrics_track_clock(self):
        cluster, tracer = _traced_cluster()
        cluster.create_client("c").subscribe("x", lambda *a: None)
        cluster.run_for(3.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] > 0
        assert 0.0 < snap["gauges"]["sim_clock_s"] <= 3.0

    def test_kernel_metrics_equal_a_per_event_hook(self):
        """The pulled metrics must be what a hook run after every kernel
        event would have pushed (a sample hook at ``every=1`` is such a
        hook)."""
        seen = {"events": 0, "clock": 0.0}

        def hook(now, events_processed):
            seen["events"] += 1
            seen["clock"] = now
            assert events_processed == seen["events"]

        tracer = Tracer()
        cluster = DynamothCluster(seed=0, initial_servers=1, tracer=tracer)
        cluster.sim.set_sample_hook(hook, every=1)
        cluster.create_client("c").subscribe("x", lambda *a: None)
        cluster.run_for(3.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] == seen["events"] > 0
        assert snap["gauges"]["sim_clock_s"] == seen["clock"]
        assert type(snap["counters"]["sim_events_total"]) is float

    def test_kernel_clock_is_the_last_event_not_the_horizon(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.attach_kernel(sim)
        assert tracer.metrics.snapshot()["counters"] == {"sim_events_total": 0.0}
        assert tracer.metrics.snapshot()["gauges"] == {"sim_clock_s": 0.0}
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.5, lambda: None)
        sim.run_until(10.0)
        sim.run_until(20.0)  # executes nothing: must not move the clock
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] == 2.0
        assert snap["gauges"]["sim_clock_s"] == 2.5
        assert tracer.metrics.snapshot() == snap  # pulling twice adds nothing

    def test_kernels_attached_in_turn_accumulate(self):
        """One tracer across an experiment's clusters: events add up and
        the clock follows the kernel that ran last."""
        tracer = Tracer()
        first, second = Simulator(), Simulator()
        tracer.attach_kernel(first)
        first.schedule_at(4.0, lambda: None)
        first.run_until(5.0)
        tracer.attach_kernel(second)
        for t in (0.5, 1.5, 3.0):
            second.schedule_at(t, lambda: None)
        second.run_until(9.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] == 4.0
        assert snap["gauges"]["sim_clock_s"] == 3.0

    def test_tracer_never_attached_reports_no_kernel_metrics(self):
        snap = Tracer().metrics.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}

    def test_delivery_latency_histogram_recorded(self):
        cluster, tracer = _traced_cluster()
        sub = cluster.create_client("sub")
        sub.subscribe("tile:1:2", lambda *a: None)
        cluster.run_for(1.0)
        pub = cluster.create_client("pub")
        pub.publish("tile:1:2", "u", payload_size=20)
        cluster.run_for(1.0)
        hist = tracer.metrics.histogram("delivery_latency_s", channel_class="tile")
        assert hist.count == 1
        assert hist.min > 0.0


def _delivery(t):
    return DeliveryEvent(t, "bob", "tile:1:1", f"m{t}", "alice", 0.01, 2, "pub1")


class TestObserverDispatch:
    """``add_observer(observer, *event_types)``: who is called, and when."""

    def test_untyped_observer_sees_every_event(self):
        tracer = Tracer()
        seen = []
        tracer.add_observer(seen.append)
        events = [ServerReadyEvent(0.0, "pub1"), _delivery(0.5), SubscribeEvent(0.6, "bob", "a", ())]
        for event in events:
            tracer.emit(event)
        assert seen == events

    def test_typed_observer_sees_only_its_classes(self):
        tracer = Tracer()
        seen = []
        tracer.add_observer(seen.append, DeliveryEvent, ServerReadyEvent)
        ready, delivery = ServerReadyEvent(0.0, "pub1"), _delivery(0.5)
        for event in (ready, SubscribeEvent(0.2, "bob", "a", ()), delivery):
            tracer.emit(event)
        assert seen == [ready, delivery]

    def test_one_events_observers_run_in_registration_order(self):
        tracer = Tracer()
        order = []
        tracer.add_observer(lambda e: order.append("typed-first"), DeliveryEvent)
        tracer.add_observer(lambda e: order.append("untyped"))
        tracer.add_observer(lambda e: order.append("other-type"), ServerReadyEvent)
        tracer.add_observer(lambda e: order.append("typed-last"), DeliveryEvent)
        tracer.emit(_delivery(0.5))
        assert order == ["typed-first", "untyped", "typed-last"]

    def test_observer_added_mid_run_is_honoured_from_the_next_emit(self):
        tracer = Tracer()
        late = []

        def early(event):
            if not late_registered:
                late_registered.append(True)
                tracer.add_observer(late.append, DeliveryEvent)

        late_registered = []
        tracer.add_observer(early, DeliveryEvent)
        first, second = _delivery(0.5), _delivery(0.6)
        tracer.emit(first)  # resolves DeliveryEvent's observers, then grows them
        tracer.emit(second)
        assert late == [second]

    def test_removed_observer_is_not_called_and_the_rest_keep_their_order(self):
        tracer = Tracer()
        order = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def hear(self, event):
                order.append(self.name)

        first, middle, last = Recorder("first"), Recorder("middle"), Recorder("last")
        tracer.add_observer(first.hear, DeliveryEvent)
        tracer.add_observer(middle.hear)
        tracer.add_observer(last.hear, DeliveryEvent)
        tracer.emit(_delivery(0.5))  # resolves DeliveryEvent's observers
        # A bound method made afresh is ``==`` to the registered one, not ``is``.
        tracer.remove_observer(middle.hear)
        tracer.emit(_delivery(0.6))
        tracer.emit(ServerReadyEvent(0.7, "pub1"))
        assert order == ["first", "middle", "last", "first", "last"]

    def test_an_observer_can_remove_itself_during_its_own_dispatch(self):
        tracer = Tracer()
        seen, after = [], []

        def once(event):
            seen.append(event)
            tracer.remove_observer(once)

        tracer.add_observer(once, DeliveryEvent)
        tracer.add_observer(after.append, DeliveryEvent)
        first, second = _delivery(0.5), _delivery(0.6)
        tracer.emit(first)
        tracer.emit(second)
        assert seen == [first]
        assert after == [first, second]  # the dispatch in progress finished

    def test_removing_an_unregistered_observer_changes_nothing(self):
        tracer = Tracer()
        seen = []
        tracer.add_observer(seen.append, DeliveryEvent)
        tracer.remove_observer(print)
        tracer.emit(_delivery(0.5))
        assert len(seen) == 1

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "buffered"])
    def test_reentrant_sla_event_lands_after_the_delivery_that_triggered_it(
        self, tmp_path, streamed
    ):
        path = tmp_path / "t.jsonl"
        sink = StreamingJsonlSink(str(path)) if streamed else None
        tracer = Tracer(sink=sink)
        tracer.attach_sla(SlaMonitor(tracer, 0.15))  # 1 s slices
        tracer.emit(_delivery(0.5))
        tracer.emit(_delivery(1.2))  # crosses the t=1 boundary
        if sink is not None:
            sink.finalize(tracer)
        else:
            dump_tracer(tracer, path)
        body = read_trace(path)[:-1]  # minus the metrics trailer
        assert [type(e) for e in body[:3]] == [DeliveryEvent, DeliveryEvent, SlaWindowEvent]
        assert [e.t for e in body[:3]] == [0.5, 1.2, 1.0]


def _slow_deliveries():
    """Deliveries over 0-6 s, 0.5 s late until t = 3 and on time after:
    every 1 s slice boundary they cross emits window events, the first
    also violation starts."""
    return [
        DeliveryEvent(
            t, "bob", "tile:1:1" if i % 2 else "room7", f"m{i}", "alice",
            0.5 if t < 3.0 else 0.01, 2, "pub1" if i % 3 else "pub2",
        )
        for i, t in enumerate(0.25 * k + 0.1 for k in range(24))
    ]


class TestDeliveryFeed:
    """``Tracer.emit`` alone feeds a delivery to the run-level metrics and
    to the monitor attached with ``attach_sla``."""

    def test_an_observer_added_after_the_attach_sees_every_delivery(self):
        tracer = Tracer()
        monitor = SlaMonitor(tracer, 0.15)
        tracer.attach_sla(monitor)
        seen = []
        tracer.add_observer(seen.append, DeliveryEvent)
        deliveries = _slow_deliveries()
        for event in deliveries:
            tracer.emit(event)
        assert seen == deliveries
        assert monitor.violations  # the monitor was fed too

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "buffered"])
    def test_each_delivery_precedes_the_boundary_events_it_triggers(self, tmp_path, streamed):
        path = tmp_path / "t.jsonl"
        sink = StreamingJsonlSink(str(path), chunk_events=5) if streamed else None
        tracer = Tracer(sink=sink)
        tracer.attach_sla(SlaMonitor(tracer, 0.15))  # 1 s slices
        for event in _slow_deliveries():
            tracer.emit(event)
        if sink is not None:
            sink.finalize(tracer)
        else:
            dump_tracer(tracer, path)
        body = read_trace(path)[:-1]  # minus the metrics trailer
        boundary_events = 0
        last_delivery, before_it = None, None
        for event in body:
            if type(event) is DeliveryEvent:
                before_it, last_delivery = last_delivery, event
                continue
            # Stamped with its boundary; written right after the first
            # delivery at or past that boundary, never before it.
            boundary_events += 1
            assert last_delivery is not None and last_delivery.t >= event.t
            assert before_it is None or before_it.t < event.t
        assert boundary_events > 0

    def test_the_trailer_counts_every_emitted_delivery(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = StreamingJsonlSink(str(path), chunk_events=5)
        tracer = Tracer(sink=sink)
        tracer.attach_sla(SlaMonitor(tracer, 0.15))
        deliveries = _slow_deliveries()
        for event in deliveries:
            tracer.emit(event)
        sink.finalize(tracer)
        trailer = read_trace(path)[-1]
        assert type(trailer) is MetricsEvent
        assert trailer.data["counters"]["deliveries_received_total"] == len(deliveries)
        latency = {
            key: hist["count"]
            for key, hist in trailer.data["histograms"].items()
            if key.startswith("delivery_latency_s")
        }
        assert latency == {
            "delivery_latency_s{channel_class=room}": 12,
            "delivery_latency_s{channel_class=tile}": 12,
        }

    def test_a_second_attach_replaces_the_first(self):
        tracer = Tracer()
        first, second = SlaMonitor(tracer, 0.15), SlaMonitor(tracer, 0.15)
        tracer.attach_sla(first)
        tracer.attach_sla(second)
        tracer.emit(_delivery(0.5))
        assert first.report(0.5)["scopes"] == {}
        assert second.report(0.5)["scopes"]["overall"]["window_count"] == 1

    def test_a_delivery_calls_no_sla_function_without_a_monitor(self):
        def calls_in_sla(tracer):
            deliveries = [_delivery(0.1 + i * 1e-3) for i in range(50)]
            tracer.emit(deliveries[0])  # binds the instruments and the leaf
            calls = python_calls_by_file(lambda: [tracer.emit(e) for e in deliveries[1:]])
            return sum(n for path, n in calls.items() if path.endswith("/repro/obs/sla.py"))

        assert calls_in_sla(Tracer()) == 0
        monitored = Tracer()
        monitored.attach_sla(SlaMonitor(monitored, 0.15))
        # Inside one slice a monitored delivery is no sla.py frame either.
        assert calls_in_sla(monitored) == 0
