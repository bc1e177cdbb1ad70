"""Unit tests for the network fault plane."""

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import NetworkFaultPlane


@pytest.fixture
def plane():
    return NetworkFaultPlane(Random(0))


class TestIdlePlane:
    def test_no_rules_passes_everything(self, plane):
        assert plane.apply("a", "b") == 0.0
        assert not plane.active

    def test_idle_plane_consumes_no_rng(self):
        rng = Random(5)
        state = rng.getstate()
        plane = NetworkFaultPlane(rng)
        for __ in range(100):
            assert plane.apply("client", "pub1") == 0.0
        assert rng.getstate() == state


class TestPartition:
    def test_cut_is_symmetric(self, plane):
        plane.partition("a", "b")
        assert plane.apply("a", "b") is None
        assert plane.apply("b", "a") is None
        assert plane.messages_cut == 2
        assert plane.active

    def test_other_links_unaffected(self, plane):
        plane.partition("a", "b")
        assert plane.apply("a", "c") == 0.0

    def test_heal_restores_traffic(self, plane):
        plane.partition("a", "b")
        plane.heal("b", "a")  # reversed endpoints heal the same pair
        assert plane.apply("a", "b") == 0.0
        assert not plane.active

    def test_heal_unknown_pair_is_noop(self, plane):
        plane.heal("x", "y")
        assert not plane.active


class TestDegradedLink:
    def test_total_loss_drops_everything(self, plane):
        plane.degrade("a", "b", loss=1.0, jitter_s=0.0)
        assert all(plane.apply("a", "b") is None for __ in range(20))
        assert plane.messages_lost == 20

    def test_partial_loss_drops_some(self, plane):
        plane.degrade("a", "b", loss=0.5, jitter_s=0.0)
        outcomes = [plane.apply("a", "b") for __ in range(200)]
        assert 0 < plane.messages_lost < 200
        assert all(o in (None, 0.0) for o in outcomes)

    def test_jitter_delays_within_bound(self, plane):
        plane.degrade("a", "b", loss=0.0, jitter_s=0.05)
        for __ in range(50):
            delay = plane.apply("a", "b")
            assert delay is not None and 0.0 <= delay <= 0.05

    def test_zero_zero_clears_the_rule(self, plane):
        plane.degrade("a", "b", loss=0.3, jitter_s=0.01)
        plane.degrade("a", "b", loss=0.0, jitter_s=0.0)
        assert not plane.active
        assert plane.apply("a", "b") == 0.0

    def test_invalid_parameters_rejected(self, plane):
        with pytest.raises(ValueError):
            plane.degrade("a", "b", loss=1.5, jitter_s=0.0)
        with pytest.raises(ValueError):
            plane.degrade("a", "b", loss=0.0, jitter_s=-0.1)

    def test_clear_removes_all_rules(self, plane):
        plane.partition("a", "b")
        plane.degrade("c", "d", loss=1.0, jitter_s=0.0)
        plane.clear()
        assert not plane.active
        assert plane.apply("a", "b") == 0.0
        assert plane.apply("c", "d") == 0.0


def _rule_endpoints(plane):
    """``nodes`` recomputed from the live rules: endpoints per node."""
    return dict(Counter(node for key in (*plane._cut, *plane._links) for node in key))


_NODES = st.sampled_from(["a", "b", "c", "d"])
_RULE_OPS = st.one_of(
    st.tuples(st.just("partition"), _NODES, _NODES),
    st.tuples(st.just("heal"), _NODES, _NODES),
    st.tuples(
        st.just("degrade"), _NODES, _NODES, st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.01])
    ),
    st.tuples(st.just("clear")),
)


class TestNodes:
    """``nodes`` is kept in step with the rules, one change at a time."""

    def test_rule_changes_edge_cases(self, plane):
        plane.heal("x", "y")  # never cut
        assert plane.nodes == {}
        plane.degrade("a", "b", loss=0.2, jitter_s=0.0)
        plane.degrade("b", "a", loss=0.5, jitter_s=0.01)  # re-degrade: still one rule
        assert plane.nodes == {"a": 1, "b": 1}
        plane.partition("a", "b")  # cut and degraded: two rules
        plane.partition("b", "a")
        assert plane.nodes == {"a": 2, "b": 2}
        plane.degrade("a", "b", loss=0.0, jitter_s=0.0)  # degrade to zero
        plane.degrade("a", "b", loss=0.0, jitter_s=0.0)
        assert plane.nodes == {"a": 1, "b": 1}
        plane.heal("a", "b")
        assert plane.nodes == {} and not plane.active

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_RULE_OPS, max_size=30))
    def test_nodes_equal_the_endpoints_of_the_live_rules(self, ops):
        plane = NetworkFaultPlane(Random(0))
        for name, *args in ops:
            getattr(plane, name)(*args)
            assert plane.nodes == _rule_endpoints(plane)
