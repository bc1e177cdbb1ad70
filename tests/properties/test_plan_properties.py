"""Property-based tests for plans, mappings and the load estimator."""

from hypothesis import given
from hypothesis import strategies as st

from random import Random

from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.core.metrics import ClusterLoadView
from repro.core.plan import ChannelMapping, Plan, ReplicationMode
from repro.core.rebalance import LoadEstimator
from tests.helpers import make_bare_client

SERVERS = tuple(f"s{i}" for i in range(8))
servers_strategy = st.lists(st.sampled_from(SERVERS), min_size=1, max_size=8, unique=True)
#: what a subscriber holds before it reconciles: any servers, in the mapping or not
held_strategy = st.sets(st.sampled_from(SERVERS), max_size=3)


def mapping_strategy(servers):
    modes = st.sampled_from(list(ReplicationMode))

    def build(mode, shuffled):
        if mode is ReplicationMode.SINGLE:
            return ChannelMapping(mode, (shuffled[0],))
        if len(shuffled) < 2:
            return ChannelMapping(ReplicationMode.SINGLE, (shuffled[0],))
        return ChannelMapping(mode, tuple(shuffled))

    return st.tuples(modes, st.permutations(servers)).map(lambda t: build(*t))


def subscriber(seed):
    """A bare client whose replica picks draw from ``Random(seed)``."""
    __, __, client = make_bare_client(servers=SERVERS)
    client._rng = Random(seed)
    return client


class TestMappingProperties:
    """Figure 2's routing rules as the client runs them: publications go to
    ``ChannelMapping.publish_targets``, subscriptions to the servers
    ``DynamothClient._desired_sub_servers`` keeps or picks, from any held
    set, on a plain reconcile or a forced rebalance."""

    @given(
        servers=servers_strategy,
        held=held_strategy,
        rebalance=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_publish_and_subscribe_targets_are_members(self, servers, held, rebalance, seed):
        rng, client = Random(seed), subscriber(seed)
        for mode in ReplicationMode:
            if mode is not ReplicationMode.SINGLE and len(servers) < 2:
                continue
            chosen = servers if mode is not ReplicationMode.SINGLE else servers[:1]
            mapping = ChannelMapping(mode, tuple(chosen))
            assert set(mapping.publish_targets(rng)) <= set(chosen)
            desired = client._desired_sub_servers(mapping, set(held), rebalance=rebalance)
            # inside the mapping; every replica under ALL_SUBSCRIBERS, else one
            assert mapping.is_valid_subscription_set(desired), (mode, held, desired)

    @given(
        servers=servers_strategy,
        held=held_strategy,
        rebalance=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_publication_meets_every_subscription(self, servers, held, rebalance, seed):
        """The fundamental replication invariant (Figure 2): for any mode,
        any publish-target choice and the servers a subscriber holds after
        reconciling must share at least one server."""
        rng, client = Random(seed), subscriber(seed)
        for mode in ReplicationMode:
            if mode is not ReplicationMode.SINGLE and len(servers) < 2:
                continue
            chosen = servers if mode is not ReplicationMode.SINGLE else servers[:1]
            mapping = ChannelMapping(mode, tuple(chosen))
            for __ in range(10):
                publish_to = set(mapping.publish_targets(rng))
                subscribe_on = client._desired_sub_servers(
                    mapping, set(held), rebalance=rebalance
                )
                assert publish_to & subscribe_on, (
                    f"{mode}: publication to {publish_to} invisible to "
                    f"subscriber on {subscribe_on}"
                )


class TestPlanProperties:
    @given(
        servers=servers_strategy,
        channels=st.lists(
            st.text("abcxyz:", min_size=1, max_size=6), min_size=1, max_size=10, unique=True
        ),
        data=st.data(),
    )
    def test_evolve_preserves_resolution_of_untouched_channels(
        self, servers, channels, data
    ):
        plan = Plan.bootstrap(servers)
        touched = channels[0]
        mapping = data.draw(mapping_strategy(servers))
        evolved = plan.evolve(mappings={touched: mapping})
        for channel in channels[1:]:
            assert plan.mapping(channel).servers == evolved.mapping(channel).servers

    @given(servers=servers_strategy, data=st.data())
    def test_version_stamps_monotonic(self, servers, data):
        plan = Plan.bootstrap(servers)
        for __ in range(4):
            mapping = data.draw(mapping_strategy(servers))
            new_plan = plan.evolve(mappings={"ch": mapping})
            assert new_plan.version == plan.version + 1
            assert new_plan.mapping("ch").version <= new_plan.version
            assert new_plan.mapping("ch").version >= plan.mapping("ch").version
            plan = new_plan

    @given(servers=servers_strategy, data=st.data())
    def test_diff_is_symmetric_in_coverage(self, servers, data):
        plan = Plan.bootstrap(servers)
        mapping = data.draw(mapping_strategy(servers))
        evolved = plan.evolve(mappings={"ch": mapping})
        forward = plan.diff(evolved)
        if plan.mapping("ch").same_assignment(mapping):
            assert "ch" not in forward
        else:
            assert "ch" in forward


class TestEstimatorConservation:
    @given(
        loads=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.lists(
                st.tuples(
                    st.text("xyz", min_size=1, max_size=4),
                    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                ),
                max_size=5,
            ),
            min_size=3,
            max_size=3,
        ),
        moves=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"])),
            max_size=10,
        ),
    )
    def test_migrations_conserve_total_egress(self, loads, moves):
        view = ClusterLoadView(5.0)
        for server, channels in loads.items():
            merged = {}
            for name, out in channels:
                merged[name] = merged.get(name, 0.0) + out
            snaps = tuple(
                ChannelMetricsSnapshot(name, 0.0, 0, 0, 0.0, out)
                for name, out in merged.items()
            )
            measured = sum(out for __, out in merged.items())
            view.add_report(LoadReport(server, 0.0, 1.0, 1000.0, measured, snaps))
        est = LoadEstimator(view, ["a", "b", "c"], 1000.0)
        total_before = sum(est.load_ratio(s) for s in ("a", "b", "c"))
        for src, dst in moves:
            channels = est.migratable_channels(src, set())
            if channels and src != dst:
                est.migrate(channels[0], src, dst)
        total_after = sum(est.load_ratio(s) for s in ("a", "b", "c"))
        assert abs(total_before - total_after) < 1e-9
