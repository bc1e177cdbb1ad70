"""The property sweep: N generated scenarios, every oracle must pass.

This is the PR gate.  ``--check-iterations`` (rootdir conftest) controls
N; CI runs the default 20 on every PR and 200 in the nightly soak.
"""

from __future__ import annotations

import pytest

from repro.check import check_result, generate_scenario, run_scenario
from repro.check.generate import FAULT_PROFILES, WORKLOAD_SHAPES
from repro.core.config import DELIVERY_TIERS


def test_generated_scenarios_pass_all_oracles(check_iterations):
    failures = []
    for seed in range(check_iterations):
        scenario = generate_scenario(seed)
        result = run_scenario(scenario)
        violations = check_result(result)
        if violations:
            failures.append(
                f"seed={seed} label={scenario.label}: "
                + "; ".join(str(v) for v in violations)
            )
    assert not failures, "\n".join(failures)


def test_generator_covers_the_scenario_space():
    """A modest sweep exercises every workload shape, fault profile,
    delivery tier, and both causal modes."""
    scenarios = [generate_scenario(seed) for seed in range(60)]
    shapes = {s.label.split("+")[0] for s in scenarios}
    profiles = {s.label.split("+")[1] for s in scenarios}
    assert shapes == set(WORKLOAD_SHAPES)
    assert profiles == set(FAULT_PROFILES)
    assert {s.delivery_tier for s in scenarios} == set(DELIVERY_TIERS)
    assert {s.causal_order for s in scenarios} == {False, True}


def test_tier_override_changes_only_the_delivery_axis():
    """Pinning the tier/causal axis must not perturb any other draw."""
    for seed in (0, 9, 23):
        sampled = generate_scenario(seed)
        for tier in DELIVERY_TIERS:
            pinned = generate_scenario(seed, delivery_tier=tier, causal_order=False)
            assert pinned.faults == sampled.faults
            assert pinned.label == sampled.label
            assert pinned.channels == sampled.channels
            assert pinned.subscribers == sampled.subscribers
            assert pinned.delivery_tier == tier
            assert not pinned.causal_order


@pytest.mark.parametrize("tier", DELIVERY_TIERS)
def test_delivery_tier_grid_passes_all_oracles(tier, check_iterations):
    """The sweep seeds again, pinned to each tier (the guarantee matrix)."""
    iterations = max(4, check_iterations // 4)
    failures = []
    for seed in range(iterations):
        scenario = generate_scenario(seed, delivery_tier=tier)
        violations = check_result(run_scenario(scenario))
        if violations:
            failures.append(
                f"seed={seed} tier={tier} label={scenario.label}: "
                + "; ".join(str(v) for v in violations)
            )
    assert not failures, "\n".join(failures)


def test_causal_grid_passes_all_oracles(check_iterations):
    """Causal mode across the same seeds, on the strongest tier."""
    iterations = max(4, check_iterations // 4)
    failures = []
    for seed in range(iterations):
        scenario = generate_scenario(
            seed, delivery_tier="exactly_once", causal_order=True
        )
        violations = check_result(run_scenario(scenario))
        if violations:
            failures.append(
                f"seed={seed} label={scenario.label}: "
                + "; ".join(str(v) for v in violations)
            )
    assert not failures, "\n".join(failures)


def test_generated_scenarios_are_seed_deterministic():
    for seed in (0, 7, 42):
        assert generate_scenario(seed) == generate_scenario(seed)
    assert generate_scenario(1) != generate_scenario(2)


@pytest.mark.parametrize("seed", [3, 11])
def test_runs_produce_traffic_and_deliveries(seed):
    result = run_scenario(generate_scenario(seed))
    assert result.tracer.events, "run produced no trace events"
    assert result.view.deliveries, "run produced no deliveries"
    assert result.final_plan.version >= 0
