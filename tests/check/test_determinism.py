"""Flaky guard: the same scenario must replay to the byte-identical trace.

If this test ever fails, some component consumed entropy outside the
cluster's RNG registry (or iterated an unordered container into the
trace) -- the exact class of bug that makes seed replay and shrinking
useless, so it gates the whole subsystem.
"""

from __future__ import annotations

import pytest

from repro.check import generate_scenario, run_scenario

#: one calm seed and one faulted seed (crash profiles re-home channels)
REPLAY_SEEDS = [2, 15]


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_same_seed_replays_to_byte_identical_trace(seed):
    scenario = generate_scenario(seed)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.trace_bytes() == second.trace_bytes()


def test_different_seeds_diverge():
    a = run_scenario(generate_scenario(0))
    b = run_scenario(generate_scenario(1))
    assert a.trace_bytes() != b.trace_bytes()
