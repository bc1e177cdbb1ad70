"""Unit tests for plans and channel mappings."""

from random import Random

import pytest

from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from tests.helpers import make_bare_client


def subscriber():
    """``subscribe_on(mapping, held=(), rebalance=False)``: the servers one
    fresh client holding ``held`` reconciles to, by its own rule
    (``DynamothClient._desired_sub_servers``)."""
    client = make_bare_client()[2]

    def subscribe_on(mapping, held=(), rebalance=False):
        return client._desired_sub_servers(mapping, set(held), rebalance=rebalance)

    return subscribe_on


class TestChannelMapping:
    def test_single_requires_one_server(self):
        with pytest.raises(ValueError):
            ChannelMapping(ReplicationMode.SINGLE, ("a", "b"))

    def test_replicated_requires_two_servers(self):
        with pytest.raises(ValueError):
            ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a",))

    def test_empty_servers_rejected(self):
        with pytest.raises(ValueError):
            ChannelMapping(ReplicationMode.SINGLE, ())

    def test_duplicate_servers_rejected(self):
        with pytest.raises(ValueError):
            ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "a"))

    def test_single_routing(self):
        rng = Random(0)
        mapping = ChannelMapping(ReplicationMode.SINGLE, ("a",))
        assert mapping.publish_targets(rng) == ("a",)
        subscribe_on = subscriber()
        assert subscribe_on(mapping) == {"a"}
        assert subscribe_on(mapping, held={"b"}, rebalance=True) == {"a"}

    def test_all_subscribers_routing(self):
        """Figure 2b: publish to one random server, subscribe to all."""
        rng = Random(0)
        mapping = ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b", "c"))
        subscribe_on = subscriber()
        assert subscribe_on(mapping) == {"a", "b", "c"}
        assert subscribe_on(mapping, held={"a", "d"}) == {"a", "b", "c"}
        targets = {mapping.publish_targets(rng)[0] for __ in range(100)}
        assert targets == {"a", "b", "c"}  # randomized over all replicas
        assert all(len(mapping.publish_targets(rng)) == 1 for __ in range(10))

    def test_all_publishers_routing(self):
        """Figure 2c: publish to all servers, subscribe to one."""
        rng = Random(0)
        mapping = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b", "c"))
        assert set(mapping.publish_targets(rng)) == {"a", "b", "c"}
        subscribe_on = subscriber()
        picks = [subscribe_on(mapping, rebalance=True) for __ in range(100)]
        assert set().union(*picks) == {"a", "b", "c"}
        assert all(len(pick) == 1 for pick in picks)
        # a held replica is kept, unless the subscriber rebalances
        assert subscribe_on(mapping, held={"b", "d"}) == {"b"}

    def test_valid_subscription_sets(self):
        m = ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"))
        assert m.is_valid_subscription_set({"a", "b"})
        assert not m.is_valid_subscription_set({"a"})
        assert not m.is_valid_subscription_set({"a", "c"})

        m = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b"))
        assert m.is_valid_subscription_set({"a"})
        assert not m.is_valid_subscription_set({"a", "b"})

    def test_same_assignment_ignores_version_and_order(self):
        m1 = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b"), version=1)
        m2 = ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("b", "a"), version=9)
        assert m1.same_assignment(m2)
        m3 = ChannelMapping(ReplicationMode.ALL_SUBSCRIBERS, ("a", "b"), version=1)
        assert not m1.same_assignment(m3)


class TestPlan:
    def test_bootstrap_uses_consistent_hashing(self):
        plan = Plan.bootstrap(["a", "b", "c"])
        assert plan.version == 0
        mapping = plan.mapping("some-channel")
        assert mapping.mode is ReplicationMode.SINGLE
        assert mapping.version == 0
        assert mapping.servers[0] == plan.ring.lookup("some-channel")

    def test_explicit_mapping_overrides_fallback(self):
        plan = Plan.bootstrap(["a", "b"])
        plan2 = plan.evolve(
            mappings={"ch": ChannelMapping(ReplicationMode.SINGLE, ("b",))}
        )
        assert plan2.mapping("ch").servers == ("b",)
        assert plan2.explicit_mapping("ch") is not None
        assert plan2.explicit_mapping("other") is None

    def test_evolve_bumps_version_and_stamps_changes(self):
        plan = Plan.bootstrap(["a", "b"])
        plan2 = plan.evolve(
            mappings={"ch": ChannelMapping(ReplicationMode.SINGLE, ("b",))}
        )
        assert plan2.version == 1
        assert plan2.mapping("ch").version == 1

    def test_evolve_keeps_stamp_for_unchanged_assignment(self):
        plan = Plan.bootstrap(["a", "b"])
        target = ChannelMapping(ReplicationMode.SINGLE, ("b",))
        plan2 = plan.evolve(mappings={"ch": target})
        plan3 = plan2.evolve(mappings={"ch": target})
        assert plan3.version == 2
        assert plan3.mapping("ch").version == 1  # unchanged -> old stamp

    def test_evolve_noop_for_same_as_fallback(self):
        plan = Plan.bootstrap(["a", "b"])
        home = plan.ring.lookup("ch")
        plan2 = plan.evolve(
            mappings={"ch": ChannelMapping(ReplicationMode.SINGLE, (home,))}
        )
        assert plan2.explicit_mapping("ch") is None

    def test_mapping_may_not_reference_inactive_servers(self):
        plan = Plan.bootstrap(["a", "b"])
        with pytest.raises(ValueError):
            plan.evolve(
                mappings={"ch": ChannelMapping(ReplicationMode.SINGLE, ("ghost",))}
            )

    def test_active_servers_can_grow(self):
        plan = Plan.bootstrap(["a"])
        plan2 = plan.evolve(active_servers=("a", "b"))
        plan3 = plan2.evolve(
            mappings={"ch": ChannelMapping(ReplicationMode.SINGLE, ("b",))}
        )
        assert plan3.mapping("ch").servers == ("b",)

    def test_channels_on(self):
        base = Plan.bootstrap(["a", "b"])
        # pick a target that differs from the CH fallback so the mapping
        # is recorded explicitly
        target = "a" if base.ring.lookup("x") == "b" else "b"
        plan = base.evolve(
            mappings={
                "x": ChannelMapping(ReplicationMode.SINGLE, (target,)),
                "y": ChannelMapping(ReplicationMode.ALL_PUBLISHERS, ("a", "b")),
            }
        )
        assert sorted(plan.channels_on(target)) == ["x", "y"]

    def test_diff_detects_changes(self):
        plan = Plan.bootstrap(["a", "b"])
        plan2 = plan.evolve(
            mappings={"ch": ChannelMapping(ReplicationMode.SINGLE, ("b",))}
        )
        changed = plan.diff(plan2)
        if plan.ring.lookup("ch") == "b":
            assert changed == {}
        else:
            assert set(changed) == {"ch"}
            old, new = changed["ch"]
            assert new.servers == ("b",)

    def test_diff_empty_for_identical_plans(self):
        plan = Plan.bootstrap(["a", "b"])
        assert plan.diff(plan) == {}


@pytest.mark.parametrize("n_servers", range(2, 9))
def test_bootstrap_ring_bounds(n_servers):
    """A cluster's bootstrap ring (servers ``pub1..pubN``): the
    consistent-hashing fallback spreads channels within 2.5x the average
    (+4) over 64 probes per server, and the exclusion walk returns
    another member, the same one every time."""
    servers = [f"pub{i}" for i in range(1, n_servers + 1)]
    ring = Plan.bootstrap(servers).ring
    probes = [f"check-ring:{i}" for i in range(64 * n_servers)]
    loads = {server: 0 for server in servers}
    for channel in probes:
        loads[ring.lookup(channel)] += 1
    assert max(loads.values()) <= 2.5 * len(probes) / n_servers + 4
    for channel in probes[:16]:
        home = ring.lookup(channel)
        alt = ring.lookup(channel, exclude=(home,))
        assert alt != home and alt in servers
        assert ring.lookup(channel, exclude=(home,)) == alt
