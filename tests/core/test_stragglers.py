"""Unit tests for the straggler registry (chained-migration support).

One :class:`StragglerRegistry` is the balancer's and every dispatcher's:
the rule for who becomes a straggler lives in ``record`` alone.
"""

import pytest

from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.stragglers import StragglerRegistry


def single(server, version=0):
    return ChannelMapping(ReplicationMode.SINGLE, (server,), version)


def recorded(old, new):
    """The servers ``record`` registers for one channel moving old -> new."""
    registry = StragglerRegistry(30.0)
    registry.record({"ch": (old, new)}, now=0.0)
    return set(registry.entries.get("ch", {}))


def record_change(registry, old_plan, new_plan, now):
    registry.record(old_plan.diff(new_plan), now)


class TestForwardingSources:
    def test_single_move_displaces_old_server(self):
        assert recorded(single("a"), single("b")) == {"a"}

    def test_shared_servers_excluded_for_single(self):
        old = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b"))
        new = single("a")
        assert recorded(old, new) == {"b"}

    def test_all_subscribers_keeps_shared_servers(self):
        """Under all-subscribers expansion, a subscriber holding only the
        old replica misses publications landing on new ones: the old
        server stays a forwarding target even though it is in the new
        mapping."""
        old = single("a")
        new = ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b", "c"))
        assert recorded(old, new) == {"a"}


class TestStragglerTracker:
    def make_plans(self):
        base = Plan.bootstrap(["a", "b", "c"])
        home = base.ring.lookup("ch")
        others = [s for s in ("a", "b", "c") if s != home]
        v1 = base.evolve(mappings={"ch": single(others[0])})
        v2 = v1.evolve(mappings={"ch": single(others[1])})
        return base, v1, v2, home, others

    def test_chained_moves_accumulate(self):
        base, v1, v2, home, others = self.make_plans()
        registry = StragglerRegistry(timeout_s=30.0)
        record_change(registry, base, v1, now=0.0)
        record_change(registry, v1, v2, now=5.0)
        snapshot = registry.snapshot()
        # both earlier homes are remembered
        assert home in snapshot["ch"]
        assert others[0] in snapshot["ch"]
        # the later displacement has the later deadline
        assert snapshot["ch"][others[0]] == pytest.approx(35.0)
        assert snapshot["ch"][home] == pytest.approx(30.0)

    def test_drain_removes_entry(self):
        base, v1, v2, home, others = self.make_plans()
        registry = StragglerRegistry(30.0)
        record_change(registry, base, v1, 0.0)
        registry.drain("ch", home)
        assert "ch" not in registry.snapshot()
        assert not registry.entries

    def test_drain_unknown_is_noop(self):
        registry = StragglerRegistry(30.0)
        registry.drain("ghost", "a")

    def test_prune_expires_old_entries(self):
        base, v1, v2, home, others = self.make_plans()
        registry = StragglerRegistry(30.0)
        record_change(registry, base, v1, 0.0)
        record_change(registry, v1, v2, 20.0)
        registry.prune(40.0)  # first entry (deadline 30) expires
        snapshot = registry.snapshot()
        assert home not in snapshot.get("ch", {})
        assert others[0] in snapshot["ch"]

    def test_re_displacement_extends_deadline(self):
        base, v1, v2, home, others = self.make_plans()
        back = v2.evolve(mappings={"ch": single(home)})        # back home
        away = back.evolve(mappings={"ch": single(others[0])})  # away again
        registry = StragglerRegistry(30.0)
        record_change(registry, base, v1, 0.0)
        record_change(registry, back, away, 100.0)
        assert registry.snapshot()["ch"][home] == pytest.approx(130.0)

    def test_snapshot_is_a_copy(self):
        base, v1, v2, home, others = self.make_plans()
        registry = StragglerRegistry(30.0)
        record_change(registry, base, v1, 0.0)
        snapshot = registry.snapshot()
        snapshot["ch"].clear()
        assert registry.snapshot()["ch"]


class TestRegistryQueries:
    def test_targets_prunes_expired_and_dead_entries(self):
        registry = StragglerRegistry(30.0)
        registry.merge({"ch": {"old": 10.0, "dead": 50.0, "live": 50.0}})
        assert registry.targets("ch", single("new"), 20.0, {"dead"}) == ["live"]
        assert registry.entries == {"ch": {"live": 50.0}}
        assert registry.targets("ch", single("new"), 60.0, set()) == []
        assert registry.entries == {}

    def test_targets_skip_owner_and_direct_members(self):
        registry = StragglerRegistry(30.0, owner="me")
        registry.record({"ch": (single("me"), single("x"))}, 0.0)
        registry.record(
            {"ch": (ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b")), single("y"))},
            0.0,
        )
        assert set(registry.entries["ch"]) == {"me", "a", "b"}
        # the owner never; a direct member of a single/all-publishers
        # mapping receives the traffic itself
        pubs = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "x"))
        assert registry.targets("ch", pubs, 1.0, set()) == ["b"]
        # ... but an all-subscribers replica still needs the copies
        subs = ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "x"))
        assert registry.targets("ch", subs, 1.0, set()) == ["a", "b"]

    def test_merge_never_seeds_the_owner(self):
        registry = StragglerRegistry(30.0, owner="me")
        registry.merge({"ch": {"me": 30.0, "other": 30.0}})
        assert registry.entries["ch"] == {"other": 30.0}

    def test_three_replica_snapshot_is_sorted(self):
        """A channel leaving three replicas at once lists them in sorted
        order, whatever the process's string-hash seed."""
        old = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("s9", "s1", "s5"))
        registry = StragglerRegistry(30.0)
        registry.record({"ch": (old, single("s0"))}, 0.0)
        assert list(registry.snapshot()["ch"]) == ["s1", "s5", "s9"]

    def test_drop_dead(self):
        registry = StragglerRegistry(30.0)
        registry.merge({"a": {"dead": 30.0}, "b": {"dead": 30.0, "live": 30.0}})
        registry.drop_dead({"dead"})
        assert registry.entries == {"b": {"live": 30.0}}
