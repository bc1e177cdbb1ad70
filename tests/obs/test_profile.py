"""Sim-profiler tests: determinism contract, attribution, rendering."""

import json

from repro.core.cluster import BALANCER_NONE, DynamothCluster
from repro.obs.export import dump_tracer, read_trace
from repro.obs.profile import SimProfiler, classify_callable, render_profile
from repro.obs.trace import ProfileEvent, Tracer
from repro.sim.kernel import Simulator


def _run_sim(profiler=None, n=200):
    tracer = Tracer(profiler=profiler)
    sim = Simulator()
    tracer.attach_kernel(sim)
    state = {"count": 0}

    def tick(n=None):
        state["count"] += 1
        if state["count"] < n:
            sim.schedule(sim.now + 0.5, tick, n)

    sim.schedule(0.0, tick, n)
    sim.run()
    return tracer, sim


class TestClassification:
    def test_repro_module_maps_to_subsystem(self):
        subsystem, site = classify_callable(Simulator.run)
        assert subsystem == "sim"
        assert "Simulator.run" in site

    def test_foreign_callable_falls_back(self):
        subsystem, _ = classify_callable(json.dumps)
        assert subsystem == "json"


class TestAttribution:
    def test_kernel_events_attributed(self):
        profiler = SimProfiler()
        _run_sim(profiler)
        snap = profiler.snapshot()
        assert snap["total_events"] == 200
        assert snap["total_sim_s"] > 0
        assert sum(s["count"] for s in snap["events"].values()) == 200

    def test_sim_time_deltas_sum_to_run_time(self):
        profiler = SimProfiler()
        _, sim = _run_sim(profiler)
        snap = profiler.snapshot()
        total = sum(s["sim_s"] for s in snap["events"].values())
        assert abs(total - sim.now) < 1e-9

    def test_domain_counters(self):
        profiler = SimProfiler()
        profiler.count("broker", "fanout.deliveries", 5)
        profiler.count("broker", "fanout.deliveries", 2)
        snap = profiler.snapshot()
        assert snap["counters"]["broker:fanout.deliveries"] == 7

    def test_message_accounting(self):
        profiler = SimProfiler()
        profiler.count_message("PublishCmd", 120)
        profiler.count_message("PublishCmd", 80)
        snap = profiler.snapshot()
        assert snap["messages"]["PublishCmd"] == {"count": 2, "bytes": 200}


class TestDeterminism:
    def test_profiled_run_executes_identical_event_sequence(self):
        _, bare = _run_sim(None)
        profiler = SimProfiler()
        _, profiled = _run_sim(profiler)
        assert bare.events_processed == profiled.events_processed
        assert bare.now == profiled.now

    def test_trace_bytes_identical_modulo_profile_trailer(self, tmp_path):
        plain_path = tmp_path / "plain.jsonl"
        prof_path = tmp_path / "prof.jsonl"
        tracer, _ = _run_sim(None)
        dump_tracer(tracer, plain_path)
        tracer, _ = _run_sim(SimProfiler())
        dump_tracer(tracer, prof_path)

        def lines_without_profile(path):
            return [
                line
                for line in path.read_bytes().splitlines()
                if json.loads(line).get("type") != ProfileEvent.TYPE
            ]

        assert lines_without_profile(prof_path) == lines_without_profile(plain_path)
        # ... and the profiled trace does carry the trailer.
        assert any(
            type(e) is ProfileEvent for e in read_trace(prof_path)
        )

    def test_two_profiled_runs_identical_snapshots(self):
        first = SimProfiler()
        _run_sim(first)
        second = SimProfiler()
        _run_sim(second)
        assert first.snapshot() == second.snapshot()


class TestRendering:
    def test_render_lists_hot_sites(self):
        profiler = SimProfiler()
        _run_sim(profiler)
        text = render_profile(profiler.snapshot())
        assert "total events: 200" in text
        assert "by subsystem:" in text

    def test_render_top_limits_sites(self):
        profiler = SimProfiler()
        _run_sim(profiler)
        profiler.count("broker", "x", 1)
        text = render_profile(profiler.snapshot(), top=1)
        assert "top 1 site" in text


class TestReliabilityAttribution:
    """The stamp fast path: at_most_once pays zero reliability overhead,
    and the profiler proves it -- no ``reliability:*`` counter may appear
    unless a reliable tier actually sequenced messages."""

    def _cluster_counters(self, tier):
        from repro.core.cluster import BALANCER_NONE, DynamothCluster
        from repro.core.config import DynamothConfig

        profiler = SimProfiler()
        tracer = Tracer(profiler=profiler)
        cluster = DynamothCluster(
            seed=0,
            initial_servers=1,
            balancer=BALANCER_NONE,
            config=DynamothConfig(delivery_tier=tier),
            tracer=tracer,
        )
        got = []
        sub = cluster.create_client("sub")
        sub.subscribe("arena", lambda ch, body, env: got.append(body))
        pub = cluster.create_client("pub")
        cluster.run_for(1.0)
        for i in range(5):
            pub.publish("arena", f"m{i}", 100)
        cluster.run_for(3.0)
        assert len(got) == 5
        return profiler.snapshot()["counters"]

    def test_at_most_once_has_zero_reliability_attribution(self):
        counters = self._cluster_counters("at_most_once")
        assert counters.get("broker:fanout.publications", 0) >= 5
        reliability = {k: v for k, v in counters.items() if k.startswith("reliability:")}
        assert reliability == {}

    def test_reliable_tier_attributes_stamping(self):
        counters = self._cluster_counters("at_least_once")
        assert counters.get("reliability:stamp.sequenced", 0) >= 5


class TestDeliveryAttribution:
    """A delivery is booked to the receiving actor's ``receive``, whatever
    per-message callable the transport handed the kernel."""

    def test_deliveries_are_booked_per_receiving_class(self):
        profiler = SimProfiler()
        cluster = DynamothCluster(
            seed=0, initial_servers=1, balancer=BALANCER_NONE, tracer=Tracer(profiler=profiler)
        )
        for i in range(20):
            cluster.create_client(f"sub{i}").subscribe("hot", lambda *a: None)
        publisher = cluster.create_client("pub")
        cluster.run_for(1.0)
        for i in range(50):
            cluster.sim.schedule(0.05 * i, publisher.publish, "hot", i, 100)
        cluster.run_for(4.0)
        transport = cluster.transport
        leaver = cluster.clients["sub0"]
        sent = transport.messages_sent
        publisher.publish("hot", "in flight when sub0 leaves", 100)
        while transport.messages_sent < sent + 21:  # the publish, then the fan-out
            cluster.sim.step()
        cluster.remove_client("sub0")
        cluster.run_for(2.0)

        app_deliveries = sum(c.delivered for c in cluster.clients.values()) + leaver.delivered
        assert app_deliveries == 20 * 50 + 19
        events = profiler.snapshot()["events"]
        receives = {k: v["count"] for k, v in events.items() if k.endswith(".receive")}
        dead = events["net:Transport.dead_letter"]["count"]
        assert dead >= 1  # sub0's copy; send-time drops never become events
        assert sum(receives.values()) == transport.messages_sent - dead
        assert receives["core:DynamothClient.receive"] >= app_deliveries
        assert receives["broker:PubSubServer.receive"] >= 51  # the publications
        assert not [k for k in events if "operator" in k or "_deliver" in k]
        assert len(profiler._site_cache) < 50

    def test_snapshot_is_deterministic_with_deliveries(self):
        def run():
            profiler = SimProfiler()
            cluster = DynamothCluster(seed=3, initial_servers=2, tracer=Tracer(profiler=profiler))
            for i in range(5):
                cluster.create_client(f"c{i}").subscribe("ch", lambda *a: None)
            cluster.run_for(1.0)
            cluster.clients["c0"].publish("ch", "x", 10)
            cluster.run_for(2.0)
            return profiler.snapshot()

        assert run() == run()
