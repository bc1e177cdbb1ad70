"""Unit tests for the rebalancing algorithms (Algorithms 1 & 2, low-load)."""

import pytest

from repro.core.config import DynamothConfig
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.rebalance import (
    LoadEstimator,
    channel_level_rebalance,
    high_load_rebalance,
    low_load_rebalance,
)
from tests.helpers import paper_decision

NOMINAL = 1000.0


def snap(channel, pubs=0.0, publishers=0, subs=0, msgs=0.0, out=0.0):
    return ChannelMetricsSnapshot(channel, pubs, publishers, subs, msgs, out)


def view_from(loads, t=10.0, window=5.0):
    """loads: {server: [snapshots]}; measured egress = sum of channel out."""
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


class TestLoadEstimator:
    def test_seeded_from_view(self):
        view = view_from({"a": [snap("ch", out=500.0)]})
        est = LoadEstimator(view, ["a", "b"], NOMINAL)
        assert est.load_ratio("a") == pytest.approx(0.5)
        assert est.load_ratio("b") == 0.0

    def test_migrate_moves_contribution(self):
        view = view_from({"a": [snap("x", out=400.0), snap("y", out=100.0)]})
        est = LoadEstimator(view, ["a", "b"], NOMINAL)
        moved = est.migrate("x", "a", "b")
        assert moved == pytest.approx(400.0)
        assert est.load_ratio("a") == pytest.approx(0.1)
        assert est.load_ratio("b") == pytest.approx(0.4)

    def test_set_replicas_splits_evenly(self):
        view = view_from({"a": [snap("x", out=600.0)]})
        est = LoadEstimator(view, ["a", "b", "c"], NOMINAL)
        est.set_replicas("x", ("a",), ["a", "b", "c"])
        for server in ("a", "b", "c"):
            assert est.load_ratio(server) == pytest.approx(0.2)

    def test_busiest_and_least_loaded(self):
        view = view_from(
            {"a": [snap("x", out=900.0)], "b": [snap("y", out=100.0)], "c": []}
        )
        est = LoadEstimator(view, ["a", "b", "c"], NOMINAL)
        assert est.busiest(["a", "b", "c"])[0] == "a"
        assert est.least_loaded(["a", "b", "c"]) == "c"
        assert est.least_loaded(["a", "b", "c"], exclude=("c",)) == "b"
        assert est.least_loaded([], exclude=()) is None

    def test_migratable_channels_sorted_by_contribution(self):
        view = view_from(
            {"a": [snap("x", out=100.0), snap("y", out=300.0), snap("z", out=200.0)]}
        )
        est = LoadEstimator(view, ["a"], NOMINAL)
        assert est.migratable_channels("a", set()) == ["y", "z", "x"]
        assert est.migratable_channels("a", {"y"}) == ["z", "x"]


class TestAlgorithm1:
    """Channel-level rebalancing: replication scheme selection."""

    def run(self, loads, plan=None, cfg=None, servers=("a", "b", "c", "d")):
        cfg = cfg or config(
            all_subs_threshold=100.0,
            publication_threshold=50.0,
            all_pubs_threshold=10.0,
            subscriber_threshold=20.0,
        )
        plan = plan or Plan.bootstrap(servers)
        view = view_from(loads)
        est = LoadEstimator(view, list(servers), NOMINAL)
        return channel_level_rebalance(plan, view, cfg, list(servers), est)

    def test_publication_heavy_channel_gets_all_subscribers(self):
        # P_ratio = 600/1 >> 100, pubs 600 > 50
        proposals = self.run({"a": [snap("hot", pubs=600.0, subs=1, out=100.0)]})
        assert proposals["hot"].mode is ReplicationMode.ALL_SUBSCRIBERS
        # N = ceil(600/100) = 6, capped at 4 active servers
        assert len(proposals["hot"].servers) == 4

    def test_subscriber_heavy_channel_gets_all_publishers(self):
        # S_ratio = 300/2 = 150 > 10, subs 300 > 20
        proposals = self.run({"a": [snap("hot", pubs=2.0, subs=300, out=100.0)]})
        assert proposals["hot"].mode is ReplicationMode.ALL_PUBLISHERS

    def test_quiet_channel_untouched(self):
        proposals = self.run({"a": [snap("calm", pubs=5.0, subs=3, out=10.0)]})
        assert "calm" not in proposals

    def test_below_publication_floor_no_replication(self):
        # ratio high but absolute publications below the floor
        proposals = self.run({"a": [snap("spiky", pubs=40.0, subs=0, out=10.0)]})
        assert "spiky" not in proposals

    def test_below_subscriber_floor_no_replication(self):
        proposals = self.run({"a": [snap("few", pubs=1.0, subs=15, out=10.0)]})
        assert "few" not in proposals

    def test_replication_cancelled_when_load_drops(self):
        servers = ("a", "b", "c", "d")
        plan = Plan.bootstrap(servers).evolve(
            mappings={"hot": ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"))}
        )
        proposals = self.run(
            {"a": [snap("hot", pubs=3.0, subs=2, out=5.0)], "b": []}, plan=plan
        )
        assert proposals["hot"].mode is ReplicationMode.SINGLE
        assert len(proposals["hot"].servers) == 1
        assert proposals["hot"].servers[0] in ("a", "b")

    def test_existing_correct_replication_unchanged(self):
        servers = ("a", "b", "c", "d")
        plan = Plan.bootstrap(servers).evolve(
            mappings={"hot": ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"))}
        )
        # P_ratio 150 -> N = ceil(150/100) = 2, same as current
        proposals = self.run(
            {"a": [snap("hot", pubs=75.0, subs=1, out=50.0)],
             "b": [snap("hot", pubs=75.0, subs=1, out=50.0)]},
            plan=plan,
        )
        assert "hot" not in proposals

    def test_growth_adds_least_loaded_servers(self):
        loads = {
            "a": [snap("hot", pubs=250.0, subs=1, out=100.0)],
            "b": [snap("bg", out=800.0)],   # busy
            "c": [],                          # idle
            "d": [snap("bg2", out=300.0)],
        }
        proposals = self.run(loads)
        mapping = proposals["hot"]
        assert mapping.mode is ReplicationMode.ALL_SUBSCRIBERS
        # N = ceil(250/100) = 3: keeps the channel's current (CH) server,
        # then grows onto the least-loaded servers -- never the busy "b"
        # unless "b" already was the CH home.
        home = Plan.bootstrap(("a", "b", "c", "d")).ring.lookup("hot")
        assert len(mapping.servers) == 3
        assert home in mapping.servers
        assert "c" in mapping.servers  # the idle server is always picked
        if home != "b":
            assert "b" not in mapping.servers

    def test_both_large_corner_case_uses_all_subscribers(self):
        """Huge publications AND huge subscribers -> all-subscribers
        (all-publishers would multiply every publication)."""
        cfg = config(
            all_subs_threshold=1000.0,
            publication_threshold=50.0,
            all_pubs_threshold=1000.0,
            subscriber_threshold=20.0,
        )
        # ratios moderate (100/100), but channel egress exceeds a server
        loads = {"a": [snap("mega", pubs=100.0, subs=100, out=950.0)]}
        proposals = self.run(loads, cfg=cfg)
        assert proposals["mega"].mode is ReplicationMode.ALL_SUBSCRIBERS
        assert len(proposals["mega"].servers) >= 2


class TestAlgorithm2:
    """System-level high-load rebalancing."""

    def run(self, loads, servers=("a", "b"), cfg=None, replicated=frozenset()):
        cfg = cfg or config()
        view = view_from(loads)
        est = LoadEstimator(view, list(servers), NOMINAL)
        return high_load_rebalance(cfg, list(servers), est, set(replicated))

    def test_migrates_busiest_channel_to_least_loaded(self):
        loads = {
            "a": [snap("big", out=500.0), snap("small", out=450.0)],
            "b": [],
        }
        proposals, spawn = self.run(loads)
        assert proposals["big"].servers == ("b",)
        assert spawn == 0

    def test_no_action_below_threshold(self):
        loads = {"a": [snap("x", out=500.0)], "b": []}
        proposals, spawn = self.run(loads)
        assert proposals == {}
        assert spawn == 0

    def test_migrates_until_safe(self):
        loads = {
            "a": [snap(f"c{i}", out=240.0) for i in range(4)],  # LR 0.96
            "b": [],
        }
        proposals, spawn = self.run(loads)
        # moving one channel leaves 0.72 (>= 0.7 safe); two leave 0.48
        assert len(proposals) == 2

    def test_requests_spawn_when_everyone_is_loaded(self):
        loads = {
            "a": [snap("a1", out=500.0), snap("a2", out=460.0)],
            "b": [snap("b1", out=650.0)],
        }
        proposals, spawn = self.run(loads)
        assert spawn == 1

    def test_replicated_channels_not_migrated(self):
        loads = {
            "a": [snap("rep", out=800.0), snap("plain", out=150.0)],
            "b": [],
        }
        proposals, spawn = self.run(loads, replicated={"rep"})
        assert "rep" not in proposals
        assert proposals.get("plain") is not None

    def test_fixes_multiple_overloaded_servers(self):
        loads = {
            "a": [snap("a1", out=500.0), snap("a2", out=450.0)],
            "b": [snap("b1", out=500.0), snap("b2", out=460.0)],
            "c": [],
            "d": [],
        }
        proposals, spawn = self.run(loads, servers=("a", "b", "c", "d"))
        moved_from_a = [c for c in proposals if c.startswith("a")]
        moved_from_b = [c for c in proposals if c.startswith("b")]
        assert moved_from_a and moved_from_b


class TestLowLoad:
    def run(self, loads, plan, servers, bootstrap, cfg=None, replicated=frozenset()):
        cfg = cfg or config()
        view = view_from(loads)
        est = LoadEstimator(view, list(servers), NOMINAL)
        return low_load_rebalance(
            plan, view, cfg, list(servers), set(bootstrap), est, set(replicated)
        )

    def test_drains_and_decommissions_idle_server(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(("a",)).evolve(
            active_servers=servers,
            mappings={"ch": None.__class__ and ChannelMapping(ReplicationMode.SINGLE, ("a",))},
        )
        # "b" is dynamically added, holds one small channel
        plan = plan.evolve(
            mappings={"drifted": ChannelMapping(ReplicationMode.SINGLE, ("b",))}
        )
        loads = {"a": [snap("ch", out=100.0)], "b": [snap("drifted", out=50.0)]}
        proposals, decommission = self.run(loads, plan, servers, {"a"})
        assert proposals["drifted"].servers == ("a",)
        assert decommission == ["b"]

    def test_bootstrap_servers_never_removed(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(servers)
        loads = {"a": [], "b": []}
        proposals, decommission = self.run(loads, plan, servers, {"a", "b"})
        assert decommission == []

    def test_no_drain_when_receivers_would_overload(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(("a",)).evolve(active_servers=servers).evolve(
            mappings={"big": ChannelMapping(ReplicationMode.SINGLE, ("b",))}
        )
        loads = {
            "a": [snap("x", out=250.0)],
            "b": [snap("big", out=550.0)],
        }
        # avg LR = 0.4 ... above lr_low 0.3 -> caller gates; call directly:
        proposals, decommission = self.run(loads, plan, servers, {"a"})
        # moving "big" (550) onto a (250) -> 0.8 > lr_low_target 0.6: refused
        assert decommission == []

    def test_replicated_reference_blocks_drain(self):
        servers = ("a", "b", "c")
        plan = (
            Plan.bootstrap(("a",))
            .evolve(active_servers=servers)
            .evolve(mappings={"rep": ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("b", "c"))})
        )
        loads = {"a": [], "b": [snap("rep", out=10.0)], "c": [snap("rep", out=10.0)]}
        proposals, decommission = self.run(
            loads, plan, servers, {"a"}, replicated={"rep"}
        )
        assert decommission == []


class TestGenerateDecision:
    """The paper policy's whole two-step decision."""

    def test_noop_on_healthy_cluster(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(servers)
        view = view_from({"a": [snap("x", out=500.0)], "b": [snap("y", out=450.0)]})
        decision = paper_decision(
            plan, view, config(), list(servers), set(servers), NOMINAL
        )
        assert decision.is_noop

    def test_overload_produces_migrations(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(servers)
        view = view_from(
            {"a": [snap("x", out=500.0), snap("y", out=450.0)], "b": []}
        )
        decision = paper_decision(
            plan, view, config(), list(servers), set(servers), NOMINAL
        )
        assert decision.mappings

    def test_scale_down_can_be_disabled(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(("a",)).evolve(active_servers=servers)
        view = view_from({"a": [snap("x", out=50.0)], "b": [snap("z", out=10.0)]})
        decision = paper_decision(
            plan, view, config(), list(servers), {"a"}, NOMINAL, allow_scale_down=False
        )
        assert decision.decommission == []
