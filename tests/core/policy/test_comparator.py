"""The paper's comparator as a policy: plain consistent hashing.

Unit tests drive :class:`ConsistentHashingPolicy` through the seam on
canned views; the last class runs it inside the one ``LoadBalancer``
(``DynamothConfig(rebalance_policy="consistent_hashing")``), where it inherits
the heartbeat failure detection and plan repair every policy gets.
"""

from repro import BrokerConfig, DynamothCluster, DynamothConfig
from repro.core.hashing import ConsistentHashRing
from repro.core.plan import Plan, ReplicationMode
from repro.core.policy.consistent_hashing import ConsistentHashingPolicy
from repro.sim.timers import PeriodicTask
from tests.core.policy.test_policies import config, context, snap, view_from

def policy_and_plan(servers):
    cfg = config()
    return ConsistentHashingPolicy(cfg), cfg, Plan.bootstrap(servers)


class TestPlacementRule:
    def test_never_replicates(self):
        """A channel Algorithm 1 would replicate stays SINGLE."""
        policy, cfg, plan = policy_and_plan(["a", "b"])
        hot = snap("hot", pubs=3000.0, publishers=50, subs=400, out=700.0)
        view = view_from({"a": [hot], "b": []})
        steady = policy.decide(context(plan, view, cfg, ["a", "b"]))
        assert steady.mappings == {}
        grown = policy.decide(context(plan, view, cfg, ["a", "b", "c"]))
        assert grown.mappings
        for mapping in grown.mappings.values():
            assert mapping.mode is ReplicationMode.SINGLE
            assert len(mapping.servers) == 1

    def test_never_decommissions(self):
        policy, cfg, plan = policy_and_plan(["a", "b", "c"])
        view = view_from({"a": [snap("x", out=50.0)], "b": [], "c": []})
        decision = policy.decide(context(plan, view, cfg, ["a", "b", "c"]))
        assert decision.is_noop  # an idle pool is left alone

    def test_one_server_per_overloaded_decision(self):
        policy, cfg, plan = policy_and_plan(["a", "b"])
        view = view_from(
            {"a": [snap("x", out=950.0)], "b": [snap("y", out=2400.0)]}
        )
        for __ in range(2):  # however overloaded, however often asked
            decision = policy.decide(context(plan, view, cfg, ["a", "b"]))
            assert decision.spawn_servers == 1
            assert decision.mappings == {}
            assert decision.decommission == []

    def test_replaces_only_when_membership_changed(self):
        policy, cfg, plan = policy_and_plan(["a"])
        channels = [f"ch{i}" for i in range(12)]
        view = view_from({"a": [snap(c, out=10.0) for c in channels]})
        assert policy.decide(context(plan, view, cfg, ["a"])).is_noop

        joined = policy.decide(context(plan, view, cfg, ["a", "b"]))
        ring = ConsistentHashRing(["a", "b"])
        assert list(joined.mappings) == sorted(channels)  # every known channel
        for channel, mapping in joined.mappings.items():
            assert mapping.servers == (ring.lookup(channel),)
        assert {m.servers for m in joined.mappings.values()} == {("a",), ("b",)}
        assert joined.spawn_servers == 0

        plan = plan.evolve(mappings=joined.mappings, active_servers=("a", "b"))
        assert policy.decide(context(plan, view, cfg, ["a", "b"])).is_noop

    def test_unknown_channel_goes_where_clients_fall_back(self):
        """Same members, same exclusions -> same server as a client's
        exclusion-aware ring lookup, before and after the ring grew."""
        policy, cfg, plan = policy_and_plan(["a", "b", "c"])
        view = view_from({"a": [], "b": [], "c": []})
        channels = [f"room:{i}" for i in range(40)]

        ctx = context(plan, view, cfg, ["a", "b", "c"])
        for channel in channels:  # bootstrap ring, "b" is dead
            assert policy.place_unknown_channel(
                ctx, ctx.make_estimator(), channel, ["a", "c"]
            ) == plan.ring.lookup(channel, exclude=["b"])

        ctx = context(plan, view, cfg, ["a", "b", "c", "d"])
        policy.decide(ctx)  # the ring grows to four members
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        homes = set()
        for channel in channels:
            target = policy.place_unknown_channel(
                ctx, ctx.make_estimator(), channel, ["a", "b", "d"]
            )
            assert target == ring.lookup(channel, exclude=["c"])
            homes.add(target)
        assert homes == {"a", "b", "d"}

    def test_no_live_candidate_defers_to_the_caller(self):
        policy, cfg, plan = policy_and_plan(["a"])
        ctx = context(plan, view_from({"a": []}), cfg, ["a"])
        assert policy.place_unknown_channel(ctx, ctx.make_estimator(), "x", []) is None


class TestInsideTheBalancer:
    def test_crash_is_detected_and_repaired(self):
        cluster = DynamothCluster(
            seed=0,
            config=DynamothConfig(
                max_servers=3,
                min_servers=2,
                t_wait_s=5.0,
                load_window_s=10.0,  # the victim's last reports outlive its confirmation
                client_ping_interval_s=1.0,
                rebalance_policy="consistent_hashing",
            ),
            broker_config=BrokerConfig(nominal_egress_bps=1e6, per_connection_bps=None),
            initial_servers=3,
        )
        lb = cluster.balancer
        assert lb.policy.name == cluster.config.rebalance_policy == "consistent_hashing"
        victim = "pub2"
        channel = next(
            f"ch{i}" for i in range(200) if cluster.plan.ring.lookup(f"ch{i}") == victim
        )
        received = []
        sub = cluster.create_client("sub")
        sub.subscribe(channel, lambda ch, body, env: received.append(body))
        pub = cluster.create_client("pub")
        PeriodicTask(cluster.sim, 0.5, lambda now: pub.publish(channel, now, 100)).start()

        cluster.run_until(5.0)
        cluster.crash_server(victim)
        cluster.run_until(40.0)

        assert victim in lb.failed_servers
        assert [e.kind for e in lb.events].count("repair") == 1
        # re-homed to the next live server on the ring, where the clients'
        # own exclusion-aware fallback had already gone
        home = lb.plan.explicit_mapping(channel).servers
        assert home == (cluster.plan.ring.lookup(channel, exclude=[victim]),)
        assert sorted(lb.policy.ring.servers) == ["pub1", "pub3"]  # re-hashed
        assert received[-1] > 39.0  # deliveries resumed
