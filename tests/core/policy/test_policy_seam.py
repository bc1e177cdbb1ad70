"""The policy seam: the policy table and the paper policy's pinned decisions.

The critical property: for every scenario in the grid below, the ``paper``
policy called through the seam (``RebalancePolicy.decide``) produces the
pinned decision -- mappings, spawn count and decommission list -- that
the paper's two-step plan generation produced when it was still written
out beside the seam as ``rebalance.generate_decision``.  Algorithms 1 & 2
must not change underneath the seam.
"""

import pytest

from repro.core.config import DynamothConfig
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.policy import (
    PolicyContext,
    RebalancePolicy,
    available_policies,
    make_policy,
    policy_class,
)
from repro.core.policy.paper import PaperPolicy
from tests.helpers import paper_decision

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


def context(plan, view, cfg, active, *, bootstrap=None, allow_scale_down=True):
    return PolicyContext(
        now=10.0,
        plan=plan,
        view=view,
        config=cfg,
        active_servers=tuple(active),
        bootstrap_servers=frozenset(bootstrap if bootstrap is not None else active[:1]),
        default_nominal_bps=NOMINAL,
        allow_scale_down=allow_scale_down,
    )


class TestRegistry:
    def test_all_six_policies_registered(self):
        assert {
            "paper",
            "least_loaded",
            "ewma_predictive",
            "headroom_pace",
            "chbl",
            "consistent_hashing",
        } <= set(available_policies())

    def test_make_policy_follows_config(self):
        for name in available_policies():
            policy = make_policy(config(rebalance_policy=name))
            assert policy.name == name

    def test_unknown_policy_lists_registered(self):
        with pytest.raises(ValueError, match="paper"):
            policy_class("no-such-policy")
        with pytest.raises(ValueError, match="no-such-policy"):
            make_policy(config(rebalance_policy="no-such-policy"))

    def test_only_paper_claims_algorithm1(self):
        claims = {
            name: policy_class(name).algorithm1_replication
            for name in available_policies()
        }
        assert claims["paper"] is True
        assert not any(v for n, v in claims.items() if n != "paper")


# ----------------------------------------------------------------------
# The paper policy's decisions, pinned
# ----------------------------------------------------------------------
def scenario_grid():
    """(name, plan, view, config, active, bootstrap, allow_scale_down)."""
    grid = []

    # Balanced mid-load: nothing to do.
    plan = Plan.bootstrap(["a", "b"], vnodes=8)
    view = view_from({"a": [snap("x", out=500.0)], "b": [snap("y", out=450.0)]})
    grid.append(("balanced-noop", plan, view, config(), ["a", "b"], {"a"}, True))

    # One hot server, an easy receiver: Algorithm 2 migrates.
    plan = Plan.bootstrap(["a", "b"], vnodes=8)
    view = view_from(
        {
            "a": [snap("x", out=600.0), snap("y", out=350.0)],
            "b": [snap("z", out=100.0)],
        }
    )
    grid.append(("hot-migrate", plan, view, config(), ["a", "b"], {"a"}, True))

    # Everyone hot: migration cannot help, a spawn is requested.
    plan = Plan.bootstrap(["a", "b"], vnodes=8)
    view = view_from(
        {
            "a": [snap("x", out=950.0)],
            "b": [snap("y", out=930.0)],
        }
    )
    grid.append(("all-hot-spawn", plan, view, config(), ["a", "b"], {"a"}, True))

    # Idle over-provisioned pool: low-load drain path.
    plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
    view = view_from(
        {
            "a": [snap("x", out=150.0)],
            "b": [snap("y", out=100.0)],
            "c": [snap("z", out=50.0)],
        }
    )
    grid.append(("idle-drain", plan, view, config(), ["a", "b", "c"], {"a"}, True))

    # Same idle pool but a spawn is in flight: scale-down suppressed.
    grid.append(("idle-no-scale-down", plan, view, config(), ["a", "b", "c"], {"a"}, False))

    # Replication-worthy channel (very hot, single subscriber).
    plan = Plan.bootstrap(["a", "b"], vnodes=8)
    view = view_from(
        {
            "a": [snap("hot", pubs=3000.0, publishers=50, subs=1, out=700.0)],
            "b": [snap("y", out=100.0)],
        }
    )
    grid.append(("all-subs-worthy", plan, view, config(), ["a", "b"], {"a"}, True))

    # All-publishers-worthy channel (few publications, subscriber crowd).
    plan = Plan.bootstrap(["a", "b", "c"], vnodes=8)
    view = view_from(
        {
            "a": [snap("crowd", pubs=10.0, publishers=2, subs=500, out=800.0)],
            "b": [snap("y", out=100.0)],
            "c": [],
        }
    )
    grid.append(("all-pubs-worthy", plan, view, config(), ["a", "b", "c"], {"a"}, True))

    # Existing replication whose traffic died down: de-replication.
    base = Plan.bootstrap(["a", "b"], vnodes=8)
    plan = base.evolve(
        mappings={
            "cool": ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"))
        }
    )
    view = view_from(
        {
            "a": [snap("cool", pubs=5.0, publishers=1, subs=2, out=50.0)],
            "b": [snap("cool", pubs=5.0, publishers=1, subs=2, out=50.0)],
        }
    )
    grid.append(("de-replicate", plan, view, config(), ["a", "b"], {"a"}, True))

    return grid


SINGLE = ReplicationMode.SINGLE

#: name -> (mappings as {channel: (mode, servers)}, spawn, decommission):
#: what ``rebalance.generate_decision``, the two-step composition written
#: out beside the seam until it was deleted, returned on each grid row.
PINNED_DECISIONS = {
    "balanced-noop": ({}, 0, []),
    "hot-migrate": ({"y": (SINGLE, ("b",))}, 0, []),
    "all-hot-spawn": ({}, 1, []),
    "idle-drain": ({"z": (SINGLE, ("b",))}, 0, ["c"]),
    "idle-no-scale-down": ({}, 0, []),
    "all-subs-worthy": ({"hot": (ReplicationMode.ALL_SUBSCRIBERS, ("b", "a"))}, 0, []),
    "all-pubs-worthy": ({"crowd": (ReplicationMode.ALL_PUBLISHERS, ("b", "c"))}, 0, []),
    "de-replicate": ({"cool": (SINGLE, ("a",))}, 0, []),
}


@pytest.mark.parametrize(
    "name,plan,view,cfg,active,bootstrap,allow_scale_down",
    scenario_grid(),
    ids=[row[0] for row in scenario_grid()],
)
def test_paper_policy_matches_generate_decision(
    name, plan, view, cfg, active, bootstrap, allow_scale_down
):
    decision = paper_decision(
        plan, view, cfg, active, bootstrap, NOMINAL, allow_scale_down=allow_scale_down
    )
    mappings, spawn, decommission = PINNED_DECISIONS[name]
    assert decision.mappings == {
        channel: ChannelMapping(mode, servers)
        for channel, (mode, servers) in mappings.items()
    }
    assert decision.spawn_servers == spawn
    assert decision.decommission == decommission


def test_grid_exercises_every_decision_shape():
    """The grid is only meaningful if it covers all outcome kinds."""
    shapes = set()
    for name, plan, view, cfg, active, bootstrap, allow in scenario_grid():
        decision = paper_decision(
            plan, view, cfg, active, bootstrap, NOMINAL, allow_scale_down=allow
        )
        if decision.is_noop:
            shapes.add("noop")
        if decision.mappings:
            shapes.add("mappings")
        if decision.spawn_servers:
            shapes.add("spawn")
        if decision.decommission:
            shapes.add("decommission")
        for mapping in decision.mappings.values():
            if mapping.mode is not ReplicationMode.SINGLE:
                shapes.add("replication")
    assert shapes == {"noop", "mappings", "spawn", "decommission", "replication"}


def test_default_placement_is_least_loaded():
    cfg = config()
    plan = Plan.bootstrap(["a", "b"], vnodes=8)
    view = view_from({"a": [snap("x", out=800.0)], "b": [snap("y", out=100.0)]})
    ctx = context(plan, view, cfg, ["a", "b"])
    policy = PaperPolicy(cfg)
    estimator = ctx.make_estimator()
    assert policy.place_unknown_channel(ctx, estimator, "new", ["a", "b"]) == "b"
    assert policy.place_unknown_channel(ctx, estimator, "new", []) is None


def test_decide_is_pure_with_respect_to_plan():
    """decide() must not mutate the plan it was given."""
    cfg = config()
    plan = Plan.bootstrap(["a", "b"], vnodes=8)
    view = view_from(
        {"a": [snap("x", out=600.0), snap("y", out=350.0)], "b": []}
    )
    before = plan.to_dict()
    PaperPolicy(cfg).decide(context(plan, view, cfg, ["a", "b"]))
    assert plan.to_dict() == before


def test_policies_are_policy_subclasses():
    for name in available_policies():
        assert issubclass(policy_class(name), RebalancePolicy)
