"""Tests for the tracer: channel classes, event capture on a live cluster."""

import pytest

from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.obs.export import dump_tracer, read_trace
from repro.obs.profile import SimProfiler
from repro.obs.sink import StreamingJsonlSink
from repro.obs.sla import SlaMonitor
from repro.obs.trace import (
    NULL_TRACER,
    DeliveryEvent,
    FanoutEvent,
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
        t.message_tap("a", "b", object(), 10)
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
        publishes = tracer.events_of(PublishEvent)
        fanouts = tracer.events_of(FanoutEvent)
        deliveries = tracer.events_of(DeliveryEvent)
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
        subs = tracer.events_of(SubscribeEvent)
        unsubs = tracer.events_of(UnsubscribeEvent)
        assert [e.channel for e in subs] == ["a"]
        assert subs[0].client == "c1"
        assert [e.channel for e in unsubs] == ["a"]

    def test_message_tap_counts_sends(self):
        cluster, tracer = _traced_cluster()
        sub = cluster.create_client("sub")
        sub.subscribe("news", lambda *a: None)
        cluster.run_for(1.0)
        pub = cluster.create_client("pub")
        pub.publish("news", "x", payload_size=10)
        cluster.run_for(1.0)
        sent = tracer.metrics.counter_total("messages_sent_total")
        assert sent >= 2  # at least subscribe + publish
        assert tracer.metrics.counter_value("messages_sent_total", node="pub") >= 1

    def test_kernel_metrics_track_clock(self):
        cluster, tracer = _traced_cluster()
        cluster.create_client("c").subscribe("x", lambda *a: None)
        cluster.run_for(3.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] > 0
        assert 0.0 < snap["gauges"]["sim_clock_s"] <= 3.0

    def test_kernel_metrics_equal_a_per_event_hook(self):
        """The pulled metrics must be what a hook run after every kernel
        event would have pushed (the profiler seam is such a hook)."""

        class PerEventHook(SimProfiler):
            events = 0
            clock = 0.0

            def record_event(self, fn, now, args):
                self.events += 1
                self.clock = now

        hook = PerEventHook()
        tracer = Tracer(profiler=hook)
        cluster = DynamothCluster(seed=0, initial_servers=1, tracer=tracer)
        cluster.create_client("c").subscribe("x", lambda *a: None)
        cluster.run_for(3.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] == hook.events > 0
        assert snap["gauges"]["sim_clock_s"] == hook.clock
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
        monitor = SlaMonitor(tracer, 0.15)  # 1 s slices
        tracer.add_observer(monitor.on_delivery, DeliveryEvent)
        tracer.emit(_delivery(0.5))
        tracer.emit(_delivery(1.2))  # crosses the t=1 boundary
        if sink is not None:
            sink.finalize(tracer)
        else:
            dump_tracer(tracer, path)
        body = read_trace(path)[:-1]  # minus the metrics trailer
        assert [type(e) for e in body[:3]] == [DeliveryEvent, DeliveryEvent, SlaWindowEvent]
        assert [e.t for e in body[:3]] == [0.5, 1.2, 1.0]
