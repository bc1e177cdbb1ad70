"""Behavioural tests for the non-paper rebalancing policies."""

import pytest

from repro.core.config import DynamothConfig
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.policy import PolicyContext
from repro.core.policy.chbl import BoundedLoadPolicy
from repro.core.policy.consistent_hashing import ConsistentHashingPolicy
from repro.core.policy.ewma import EwmaPredictivePolicy
from repro.core.policy.greedy import HeadroomPacePolicy, LeastLoadedPolicy

NOMINAL = 1000.0


def snap(channel, pubs=0.0, publishers=0, subs=0, msgs=0.0, out=0.0):
    return ChannelMetricsSnapshot(channel, pubs, publishers, subs, msgs, out)


def view_from(loads, t=10.0, window=5.0):
    view = ClusterLoadView(window)
    for server, snapshots in loads.items():
        measured = sum(s.bytes_out_per_s for s in snapshots)
        view.add_report(
            LoadReport(server, t - 1.0, t, NOMINAL, measured, tuple(snapshots))
        )
    return view


def config(**kwargs):
    defaults = dict(
        lr_high=0.9,
        lr_safe=0.7,
        lr_low=0.3,
        lr_low_target=0.6,
        min_servers=1,
        max_servers=8,
    )
    defaults.update(kwargs)
    return DynamothConfig(**defaults)


def context(plan, view, cfg, active, *, now=10.0, allow_scale_down=True):
    return PolicyContext(
        now=now,
        plan=plan,
        view=view,
        config=cfg,
        active_servers=tuple(active),
        bootstrap_servers=frozenset(active[:1]),
        default_nominal_bps=NOMINAL,
        allow_scale_down=allow_scale_down,
    )


class TestLeastLoaded:
    def test_relieves_hotspot_onto_least_loaded(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
        view = view_from(
            {
                "a": [snap("x", out=600.0), snap("y", out=350.0)],
                "b": [snap("p", out=400.0)],
                "c": [snap("q", out=100.0)],
            }
        )
        decision = LeastLoadedPolicy(cfg).decide(context(plan, view, cfg, ["a", "b", "c"]))
        assert decision.mappings  # the hotspot was relieved
        # every migration lands on the least-loaded server, never "b"
        for mapping in decision.mappings.values():
            assert mapping.servers == ("c",)
            assert mapping.mode is ReplicationMode.SINGLE
        assert decision.spawn_servers == 0

    def test_spawns_when_nothing_fits(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        view = view_from(
            {
                "a": [snap("x", out=950.0)],
                "b": [snap("y", out=940.0)],
            }
        )
        decision = LeastLoadedPolicy(cfg).decide(context(plan, view, cfg, ["a", "b"]))
        assert decision.spawn_servers == 1

    def test_never_proposes_replication(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        view = view_from(
            {
                "a": [snap("hot", pubs=3000.0, publishers=50, subs=1, out=700.0)],
                "b": [],
            }
        )
        decision = LeastLoadedPolicy(cfg).decide(context(plan, view, cfg, ["a", "b"]))
        for mapping in decision.mappings.values():
            assert mapping.mode is ReplicationMode.SINGLE

    def test_drains_idle_pool(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
        view = view_from(
            {
                "a": [snap("x", out=150.0)],
                "b": [snap("y", out=100.0)],
                "c": [snap("z", out=50.0)],
            }
        )
        decision = LeastLoadedPolicy(cfg).decide(context(plan, view, cfg, ["a", "b", "c"]))
        assert decision.decommission
        assert decision.spawn_servers == 0

    def test_respects_scale_down_gate(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
        view = view_from(
            {"a": [snap("x", out=150.0)], "b": [], "c": []}
        )
        decision = LeastLoadedPolicy(cfg).decide(
            context(plan, view, cfg, ["a", "b", "c"], allow_scale_down=False)
        )
        assert decision.decommission == []


class TestHeadroomPace:
    def test_avoids_fast_ramping_receiver(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
        policy = HeadroomPacePolicy(cfg)

        # Tick 1: "b" is quiet, "c" moderately loaded.
        view1 = view_from(
            {"a": [snap("x", out=500.0)], "b": [snap("p", out=100.0)], "c": [snap("q", out=450.0)]},
            t=10.0,
        )
        policy.decide(context(plan, view1, cfg, ["a", "b", "c"], now=10.0))

        # Tick 2: "b" ramped hard (0.1 -> 0.6 LR in 5 s = 0.1 LR/s pace),
        # "c" stayed flat.  Raw least-loaded would now still pick "b"
        # (0.60 < 0.62); pace-aware placement must prefer flat "c".
        view2 = view_from(
            {"a": [snap("x", out=500.0)], "b": [snap("p", out=600.0)], "c": [snap("q", out=620.0)]},
            t=15.0,
        )
        ctx2 = context(plan, view2, cfg, ["a", "b", "c"], now=15.0)
        estimator = ctx2.make_estimator()
        assert estimator.least_loaded(["b", "c"]) == "b"  # the naive answer
        target = policy.place_unknown_channel(ctx2, estimator, "new", ["b", "c"])
        assert target == "c"

    def test_same_tick_calls_advance_pace_once(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        policy = HeadroomPacePolicy(cfg)
        view = view_from({"a": [snap("x", out=400.0)], "b": []}, t=10.0)
        ctx = context(plan, view, cfg, ["a", "b"], now=10.0)
        policy.decide(ctx)
        state = dict(policy._pace)
        # A repair at the same sim time must not advance the EWMA again.
        policy.place_unknown_channel(ctx, ctx.make_estimator(), "new", ["a", "b"])
        assert policy._pace == state


class TestEwmaPredictive:
    def test_bias_predicts_rising_load(self, monkeypatch):
        monkeypatch.setattr(EwmaPredictivePolicy, "ALPHA", 0.5)
        monkeypatch.setattr(EwmaPredictivePolicy, "HORIZON_S", 20.0)
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        policy = EwmaPredictivePolicy(cfg)

        view1 = view_from({"a": [snap("x", out=200.0)], "b": [snap("y", out=500.0)]}, t=10.0)
        policy.decide(context(plan, view1, cfg, ["a", "b"], now=10.0))

        # "a" is ramping (0.2 -> 0.5), "b" nearly flat.  The EWMA trend is
        # half the raw slope (alpha = 0.5), so a 20 s horizon extrapolates
        # "a" to ~0.95 predicted LR vs "b"'s ~0.55.
        view2 = view_from({"a": [snap("x", out=500.0)], "b": [snap("y", out=520.0)]}, t=15.0)
        ctx2 = context(plan, view2, cfg, ["a", "b"], now=15.0)
        estimator = ctx2.make_estimator()
        assert estimator.least_loaded(["a", "b"]) == "a"  # the naive answer
        assert policy.place_unknown_channel(ctx2, estimator, "new", ["a", "b"]) == "b"

    def test_forgets_departed_servers(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        policy = EwmaPredictivePolicy(cfg)
        view = view_from({"a": [snap("x", out=400.0)], "b": [snap("y", out=300.0)]}, t=10.0)
        policy.decide(context(plan, view, cfg, ["a", "b"], now=10.0))
        assert "b" in policy._ewma
        view2 = view_from({"a": [snap("x", out=400.0)]}, t=15.0)
        policy.decide(context(plan, view2, cfg, ["a"], now=15.0))
        assert "b" not in policy._ewma


class TestBoundedLoad:
    def test_within_bound_channels_never_move(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        # Perfectly even: everyone is within (1 + eps) * fair share.
        view = view_from(
            {"a": [snap("x", out=400.0)], "b": [snap("y", out=400.0)]}
        )
        decision = BoundedLoadPolicy(cfg).decide(context(plan, view, cfg, ["a", "b"]))
        assert decision.mappings == {}
        assert decision.spawn_servers == 0

    def test_rebinds_over_bound_server(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
        # "a" carries everything: way over (1.25 x fair-share) bound.
        view = view_from(
            {
                "a": [snap("x", out=300.0), snap("y", out=200.0), snap("z", out=100.0)],
                "b": [],
                "c": [],
            }
        )
        decision = BoundedLoadPolicy(cfg).decide(context(plan, view, cfg, ["a", "b", "c"]))
        assert decision.mappings
        for mapping in decision.mappings.values():
            assert mapping.mode is ReplicationMode.SINGLE
            assert mapping.servers[0] in {"b", "c"}

    def test_spawns_when_bound_itself_unsafe(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        view = view_from(
            {"a": [snap("x", out=900.0)], "b": [snap("y", out=880.0)]}
        )
        decision = BoundedLoadPolicy(cfg).decide(context(plan, view, cfg, ["a", "b"]))
        assert decision.spawn_servers == 1

    def test_placement_walks_past_full_server(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        view = view_from(
            {"a": [snap("x", out=700.0)], "b": [snap("y", out=100.0)]}
        )
        policy = BoundedLoadPolicy(cfg)
        ctx = context(plan, view, cfg, ["a", "b"])
        estimator = ctx.make_estimator()
        # fair share = 400 B/s each, bound = 500 B/s: "a" (700) is full,
        # so regardless of ring order every placement lands on "b".
        for channel in ("n1", "n2", "n3", "n4"):
            assert policy.place_unknown_channel(ctx, estimator, channel, ["a", "b"]) == "b"

    def test_placement_falls_back_when_everything_full(self):
        cfg = config()
        plan = Plan.bootstrap(["a", "b"], vnodes=8)
        # "big" alone (2000 B/s) dwarfs every server's bound
        # (1.25 * 2100 / 2 = 1312 B/s), so the walk finds no fit anywhere.
        view = view_from(
            {
                "a": [snap("big", out=2000.0)],
                "b": [snap("y", out=100.0)],
            }
        )
        policy = BoundedLoadPolicy(cfg)
        ctx = context(plan, view, cfg, ["a", "b"])
        estimator = ctx.make_estimator()
        target = policy.place_unknown_channel(ctx, estimator, "big", ["a", "b"])
        assert target == "b"  # least-loaded fallback instead of None

    def test_ring_reused_until_membership_changes(self):
        cfg = config()
        policy = BoundedLoadPolicy(cfg)
        ring1 = policy._ring_for(["a", "b"])
        ring2 = policy._ring_for(["b", "a"])  # same membership, any order
        assert ring1 is ring2
        ring3 = policy._ring_for(["a", "b", "c"])
        assert ring3 is not ring2

    def test_keeps_existing_replication_untouched(self):
        cfg = config()
        base = Plan.bootstrap(["a", "b", "c"], vnodes=8)
        plan = base.evolve(
            mappings={"rep": ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"))}
        )
        view = view_from(
            {
                "a": [snap("rep", out=500.0), snap("x", out=300.0)],
                "b": [snap("rep", out=500.0)],
                "c": [],
            }
        )
        decision = BoundedLoadPolicy(cfg).decide(context(plan, view, cfg, ["a", "b", "c"]))
        assert "rep" not in decision.mappings


class TestEmptyPool:
    @pytest.mark.parametrize(
        "policy_cls",
        [
            LeastLoadedPolicy,
            HeadroomPacePolicy,
            EwmaPredictivePolicy,
            BoundedLoadPolicy,
            ConsistentHashingPolicy,
        ],
    )
    def test_decide_with_no_active_servers_is_noop(self, policy_cls):
        cfg = config()
        plan = Plan.bootstrap(["a"], vnodes=8)
        view = ClusterLoadView(5.0)
        decision = policy_cls(cfg).decide(context(plan, view, cfg, []))
        assert decision.is_noop
