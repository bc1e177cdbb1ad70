"""Tracing must not change the simulation: traced == untraced, bit for bit.

These are the flight recorder's acceptance tests: attaching a tracer may
only *record* -- same seed must yield byte-identical figures, and an
untraced run must never reach a NullTracer recording method at all (the
`if tracer.enabled:` guards keep the hot path allocation-free).
"""

import pytest

from repro.core.cluster import BALANCER_DYNAMOTH, DynamothCluster
from repro.core.plan import ReplicationMode
from repro.experiments import experiment1, report
from repro.obs.trace import DeliveryEvent, NullTracer, PlanGeneratedEvent, Tracer

LEVELS = [100]
MEASURE_S = 2.0


class TestTracedRunsAreIdentical:
    def test_figure4a_render_is_byte_identical(self):
        plain = experiment1.run_figure4("fig4a", LEVELS, seed=3, measure_s=MEASURE_S)
        traced = experiment1.run_figure4(
            "fig4a", LEVELS, seed=3, measure_s=MEASURE_S, tracer=Tracer()
        )
        assert report.render_figure4(plain, "t") == report.render_figure4(traced, "t")

    def test_figure4b_render_is_byte_identical(self):
        plain = experiment1.run_figure4("fig4b", LEVELS, seed=3, measure_s=MEASURE_S)
        tracer = Tracer()
        traced = experiment1.run_figure4(
            "fig4b", LEVELS, seed=3, measure_s=MEASURE_S, tracer=tracer
        )
        assert report.render_figure4(plain, "t") == report.render_figure4(traced, "t")
        # ... and the trace actually recorded the run it shadowed.
        assert any(isinstance(e, DeliveryEvent) for e in tracer.events)

    def test_balancer_run_identical_with_tracing(self):
        def run(tracer):
            cluster = DynamothCluster(
                seed=11, initial_servers=1, balancer=BALANCER_DYNAMOTH, tracer=tracer
            )
            received = []
            sub = cluster.create_client("sub")
            sub.subscribe("room:1", lambda ch, body, env: received.append((cluster.sim.now, body)))
            pubs = [cluster.create_client(f"p{i}") for i in range(5)]
            for step in range(40):
                cluster.run_for(0.25)
                pubs[step % 5].publish("room:1", step, payload_size=100)
            cluster.run_for(2.0)
            return received

        tracer = Tracer()
        assert run(None) == run(tracer)
        assert tracer.events  # the traced twin did record


class TestNullTracerStaysCold:
    def test_untraced_run_never_emits(self, monkeypatch):
        """Every instrumented call site must guard on `tracer.enabled`:
        an untraced experiment must not reach any recording method."""

        def boom(*args, **kwargs):
            raise AssertionError("NullTracer recording method called")

        monkeypatch.setattr(NullTracer, "emit", boom)
        result = experiment1.run_point(
            "fig4a", 50, ReplicationMode.SINGLE, seed=0, measure_s=1.0
        )
        assert result.delivery_rate > 0.0

    def test_kernel_runs_nothing_per_event_traced_or_not(self):
        """The kernel metrics are pulled when the registry is snapshotted:
        there is no per-event hook for a tracer to install."""
        for tracer in (None, Tracer()):
            cluster = DynamothCluster(seed=0, initial_servers=1, tracer=tracer)
            assert not hasattr(cluster.sim, "event_hook")
            assert not hasattr(cluster.sim, "profiler")

    def test_traced_cluster_reports_kernel_metrics(self):
        tracer = Tracer()
        cluster = DynamothCluster(seed=0, initial_servers=1, tracer=tracer)
        cluster.run_until(2.0)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["sim_events_total"] == cluster.sim.events_processed > 0
        assert snap["gauges"]["sim_clock_s"] == cluster.sim.last_event_time


class TestControlPlaneTrace:
    def test_rebalance_recorded_under_load(self):
        """Drive a small cluster into a rebalance and check the control
        plane shows up in the trace with consistent plan versions."""
        from repro.broker.config import BrokerConfig
        from repro.core.config import DynamothConfig

        tracer = Tracer()
        cluster = DynamothCluster(
            seed=5,
            config=DynamothConfig(max_servers=3, min_servers=1, t_wait_s=4.0),
            broker_config=BrokerConfig(nominal_egress_bps=15_000.0),
            initial_servers=2,
            balancer=BALANCER_DYNAMOTH,
            tracer=tracer,
        )
        subs = [cluster.create_client(f"s{i}") for i in range(20)]
        for i, sub in enumerate(subs):
            sub.subscribe(f"tile:{i % 4}", lambda *a: None)
        pub = cluster.create_client("pub")
        for step in range(300):
            cluster.run_for(0.1)
            pub.publish(f"tile:{step % 4}", "x", payload_size=400)
        cluster.run_for(5.0)

        plans = [e for e in tracer.events if isinstance(e, PlanGeneratedEvent)]
        assert plans, "overload should force at least one plan generation"
        versions = [p.version for p in plans]
        assert versions == sorted(versions)
        assert tracer.metrics.counter_value("plans_generated_total") == len(plans)


@pytest.mark.parametrize("seed", [0, 9])
def test_two_tracers_same_seed_same_events(seed):
    """The trace itself is deterministic: same seed, same event stream."""

    def run():
        tracer = Tracer()
        cluster = DynamothCluster(seed=seed, initial_servers=2, tracer=tracer)
        sub = cluster.create_client("sub")
        sub.subscribe("a", lambda *a: None)
        pub = cluster.create_client("pub")
        for i in range(10):
            cluster.run_for(0.5)
            pub.publish("a", i, payload_size=64)
        cluster.run_for(1.0)
        return tracer.events

    assert run() == run()
