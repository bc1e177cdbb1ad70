"""Edge cases of the rebalancing machinery.

Covers the corners the main suites skip: an empty server pool reaching
the system-level pass, load estimation over servers with zero channels,
and single-server pools where migration has nowhere to go.
"""

import pytest

from repro.core.config import DynamothConfig
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import Plan
from repro.core.policy import PolicyContext
from repro.core.policy.paper import PaperPolicy
from repro.core.rebalance import (
    LoadEstimator,
    high_load_rebalance,
    low_load_rebalance,
)
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


class TestEmptyServerPool:
    """System-level passes over zero active servers must not blow up."""

    def test_generate_decision_with_no_servers_is_noop(self):
        plan = Plan.bootstrap(["a"], vnodes=8)
        decision = paper_decision(
            plan, ClusterLoadView(5.0), config(), [], {"a"}, NOMINAL
        )
        assert decision.is_noop

    def test_paper_policy_with_no_servers_is_noop(self):
        cfg = config()
        plan = Plan.bootstrap(["a"], vnodes=8)
        ctx = PolicyContext(
            now=10.0,
            plan=plan,
            view=ClusterLoadView(5.0),
            config=cfg,
            active_servers=(),
            bootstrap_servers=frozenset(),
            default_nominal_bps=NOMINAL,
        )
        assert PaperPolicy(cfg).decide(ctx).is_noop

    def test_low_load_rebalance_with_no_servers(self):
        plan = Plan.bootstrap(["a"], vnodes=8)
        view = ClusterLoadView(5.0)
        estimator = LoadEstimator(view, [], NOMINAL)
        proposals, decommission = low_load_rebalance(
            plan, view, config(), [], {"a"}, estimator, set()
        )
        assert proposals == {}
        assert decommission == []


class TestZeroChannelEstimation:
    """estimateLR over servers that reported no channels."""

    def test_load_ratio_zero_without_channels(self):
        view = view_from({"a": []})
        estimator = LoadEstimator(view, ["a"], NOMINAL)
        assert estimator.load_ratio("a") == 0.0
        assert estimator.migratable_channels("a", set()) == []
        assert estimator.channel_total("ghost", ["a"]) == 0.0

    def test_unreported_server_defaults_to_idle(self):
        view = view_from({"a": [snap("x", out=500.0)]})
        estimator = LoadEstimator(view, ["a", "fresh"], NOMINAL)
        assert estimator.load_ratio("fresh") == 0.0
        assert estimator.least_loaded(["a", "fresh"]) == "fresh"

    def test_egress_without_channel_breakdown_still_counts(self):
        """Measured egress is authoritative even when the per-channel
        breakdown is missing (e.g. protocol overhead)."""
        view = ClusterLoadView(5.0)
        view.add_report(LoadReport("a", 9.0, 10.0, NOMINAL, 640.0, ()))
        estimator = LoadEstimator(view, ["a"], NOMINAL)
        assert estimator.load_ratio("a") == pytest.approx(0.64)
        assert estimator.migratable_channels("a", set()) == []


class TestSingleServerPool:
    """One server: migration is impossible, draining is forbidden."""

    def test_high_load_with_single_server_requests_spawn(self):
        view = view_from({"a": [snap("x", out=600.0), snap("y", out=380.0)]})
        estimator = LoadEstimator(view, ["a"], NOMINAL)
        proposals, spawn = high_load_rebalance(config(), ["a"], estimator, set())
        assert proposals == {}  # nowhere to migrate: mappings unchanged
        assert spawn == 1

    def test_single_bootstrap_server_never_drained(self):
        plan = Plan.bootstrap(["a"], vnodes=8)
        view = view_from({"a": [snap("x", out=10.0)]})
        estimator = LoadEstimator(view, ["a"], NOMINAL)
        proposals, decommission = low_load_rebalance(
            plan, view, config(), ["a"], {"a"}, estimator, set()
        )
        assert proposals == {}
        assert decommission == []

    def test_generate_decision_single_idle_server_is_noop(self):
        plan = Plan.bootstrap(["a"], vnodes=8)
        view = view_from({"a": [snap("x", out=10.0)]})
        decision = paper_decision(plan, view, config(), ["a"], {"a"}, NOMINAL)
        assert decision.is_noop
