"""Unit tests for named random streams."""

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "players") == derive_seed(42, "players")

    def test_name_changes_seed(self):
        assert derive_seed(42, "players") != derive_seed(42, "latency")

    def test_root_changes_seed(self):
        assert derive_seed(1, "players") != derive_seed(2, "players")

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(0, "x") < 2**64


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_are_independent(self):
        reg = RngRegistry(0)
        a_first = reg.stream("a").random()
        # Drawing from b must not perturb a's future sequence.
        reg2 = RngRegistry(0)
        reg2.stream("b").random()
        assert reg2.stream("a").random() == a_first

    def test_reproducible_across_registries(self):
        seq1 = [RngRegistry(9).stream("s").random() for __ in range(1)]
        seq2 = [RngRegistry(9).stream("s").random() for __ in range(1)]
        assert seq1 == seq2

    def test_different_roots_differ(self):
        assert RngRegistry(1).stream("s").random() != RngRegistry(2).stream("s").random()

    def test_contains(self):
        reg = RngRegistry(0)
        assert "x" not in reg
        reg.stream("x")
        assert "x" in reg
