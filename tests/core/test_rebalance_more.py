"""Additional rebalancer coverage: interactions and boundary behaviour."""

from repro.core.config import DynamothConfig
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import Plan, ReplicationMode
from tests.helpers import paper_decision

NOMINAL = 1000.0


def snap(channel, pubs=0.0, publishers=0, subs=0, msgs=0.0, out=0.0):
    return ChannelMetricsSnapshot(channel, pubs, publishers, subs, msgs, out)


def view_from(loads, t=10.0, window=5.0, cpu=None):
    view = ClusterLoadView(window)
    for server, snapshots in loads.items():
        measured = sum(s.bytes_out_per_s for s in snapshots)
        view.add_report(
            LoadReport(
                server, t - 1.0, t, NOMINAL, measured, tuple(snapshots),
                cpu_utilization=(cpu or {}).get(server, 0.0),
            )
        )
    return view


def config(**kwargs):
    defaults = dict(lr_high=0.9, lr_safe=0.7, lr_low=0.3, lr_low_target=0.6)
    defaults.update(kwargs)
    return DynamothConfig(**defaults)


class TestDecisionInteractions:
    def test_replication_and_migration_in_one_pass(self):
        """A hot replicable channel AND an overloaded server of plain
        channels are both handled in a single plan generation."""
        servers = ("a", "b", "c", "d")
        plan = Plan.bootstrap(servers)
        loads = {
            "a": [snap("fire", pubs=500.0, subs=1, out=300.0),
                  snap("p1", out=400.0), snap("p2", out=350.0)],
            "b": [], "c": [], "d": [],
        }
        cfg = config(
            all_subs_threshold=100.0, publication_threshold=50.0,
            all_pubs_threshold=1e9, subscriber_threshold=1e9,
        )
        decision = paper_decision(plan, view_from(loads), cfg, list(servers), set(servers), NOMINAL)
        assert decision.mappings["fire"].mode is ReplicationMode.ALL_SUBSCRIBERS
        moved_plain = [c for c in ("p1", "p2") if c in decision.mappings]
        assert moved_plain, "system-level pass must also relieve server a"

    def test_no_scale_down_while_spawn_pending(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(("a",)).evolve(active_servers=servers)
        loads = {"a": [snap("x", out=50.0)], "b": [snap("y", out=20.0)]}
        decision = paper_decision(
            plan, view_from(loads), config(), list(servers), {"a"}, NOMINAL,
            allow_scale_down=False,
        )
        assert decision.decommission == []

    def test_min_servers_respected_by_low_load(self):
        servers = ("a",)
        plan = Plan.bootstrap(servers)
        loads = {"a": [snap("x", out=10.0)]}
        decision = paper_decision(
            plan, view_from(loads), config(min_servers=1), list(servers), {"a"}, NOMINAL
        )
        assert decision.decommission == []

    def test_idle_cluster_is_noop(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(servers)
        loads = {"a": [], "b": []}
        decision = paper_decision(
            plan, view_from(loads), config(), list(servers), set(servers), NOMINAL
        )
        assert decision.is_noop

    def test_cpu_aware_flag_reaches_estimator(self):
        servers = ("a", "b")
        plan = Plan.bootstrap(servers)
        loads = {
            "a": [snap("hot1", msgs=50.0, out=10.0), snap("hot2", msgs=50.0, out=10.0)],
            "b": [],
        }
        view = view_from(loads, cpu={"a": 1.1})
        blind = paper_decision(plan, view, config(), list(servers), set(servers), NOMINAL)
        aware = paper_decision(
            plan, view, config(cpu_aware_balancing=True), list(servers), set(servers), NOMINAL
        )
        assert blind.is_noop
        assert aware.mappings or aware.spawn_servers


class TestReplicationCountScaling:
    def test_n_servers_grows_with_ratio(self):
        """N_servers = P_ratio / AllSubs_threshold (Algorithm 1, line 5)."""
        servers = tuple(f"s{i}" for i in range(8))
        plan = Plan.bootstrap(servers)
        cfg = config(
            all_subs_threshold=100.0, publication_threshold=50.0,
            all_pubs_threshold=1e9, subscriber_threshold=1e9,
        )
        results = {}
        for pubs in (150.0, 350.0, 750.0):
            loads = {"s0": [snap("hot", pubs=pubs, subs=1, out=100.0)]}
            decision = paper_decision(
                plan, view_from(loads), cfg, list(servers), set(servers), NOMINAL
            )
            results[pubs] = len(decision.mappings["hot"].servers)
        assert results[150.0] <= results[350.0] <= results[750.0]
        assert results[150.0] == 2
        assert results[750.0] == 8

    def test_replica_count_capped_by_config(self):
        servers = tuple(f"s{i}" for i in range(8))
        plan = Plan.bootstrap(servers)
        cfg = config(
            all_subs_threshold=100.0, publication_threshold=50.0,
            max_replication_servers=3,
            all_pubs_threshold=1e9, subscriber_threshold=1e9,
        )
        loads = {"s0": [snap("hot", pubs=5000.0, subs=1, out=100.0)]}
        decision = paper_decision(
            plan, view_from(loads), cfg, list(servers), set(servers), NOMINAL
        )
        assert len(decision.mappings["hot"].servers) == 3


class TestViewPruning:
    def test_stale_reports_age_out_of_decisions(self):
        view = ClusterLoadView(window_s=3.0)
        view.add_report(
            LoadReport("a", 0.0, 1.0, NOMINAL, 950.0, (snap("x", out=950.0),))
        )
        view.prune(10.0)  # the burst is ancient history
        plan = Plan.bootstrap(("a", "b"))
        decision = paper_decision(
            plan, view, config(), ["a", "b"], {"a", "b"}, NOMINAL
        )
        assert decision.is_noop
