"""End-to-end detection power: planted real loss bugs are caught, shrunk
to minimal reproducers, and replayed from the printed seed alone.

Two planted bugs, one per replay path.  The product has no switch for
either: for the duration of a run the harness replaces the method at
class level (``repro.check.scenario._PLANTABLE_BUGS``).

* ``break_repair_replay`` makes ``Dispatcher._flush_repair_buffer`` drop
  the buffer instead of replaying it: publications a repaired channel's
  new home accepts before the recovering subscriber re-attaches are
  silently lost -- exactly what the repair-bridging oracle asserts against;
* ``break_reliable_replay`` makes ``BrokerReliability.replay_slice``
  answer nothing: brokers keep stamping sequence numbers but silently
  ignore replay requests (and send no gap notices), so a lossy client link
  leaves unrepaired sequence holes -- exactly what the gap-free oracle
  asserts against.
"""

from __future__ import annotations

import pytest

from repro.check import check_result, generate_scenario, run_scenario, shrink
from repro.check.cli import main
from repro.check.scenario import Scenario

#: a generated scenario (churny + double-crash) whose timing lands a
#: publication in the repair window; found by a 400-seed sweep and
#: locked in as the acceptance case.
BROKEN_SEED = 244


def _scenario_size(scenario: Scenario) -> tuple:
    return (
        len(scenario.faults),
        scenario.channels,
        scenario.subscribers,
        scenario.publishers,
    )


def test_broken_replay_is_caught():
    scenario = generate_scenario(BROKEN_SEED, break_repair_replay=True)
    violations = check_result(run_scenario(scenario))
    assert violations, "planted repair-replay bug went undetected"
    assert {v.oracle for v in violations} == {"repair-bridging"}


def test_same_seed_passes_with_replay_enabled():
    """The oracle fires on the bug, not on the scenario."""
    scenario = generate_scenario(BROKEN_SEED)
    assert not scenario.break_repair_replay
    assert check_result(run_scenario(scenario)) == []


def test_violation_shrinks_to_smaller_reproducer_and_replays():
    scenario = generate_scenario(BROKEN_SEED, break_repair_replay=True)
    violations = check_result(run_scenario(scenario))
    minimal, min_violations, runs = shrink(scenario, violations)
    assert runs > 0
    assert min_violations and all(
        v.oracle == "repair-bridging" for v in min_violations
    )
    assert _scenario_size(minimal) < _scenario_size(scenario)
    # The minimal scenario must reproduce from its own JSON alone.
    replayed = Scenario.from_json(minimal.to_json())
    assert replayed == minimal
    again = check_result(run_scenario(replayed))
    assert any(v.oracle == "repair-bridging" for v in again)


def test_cli_sweep_catches_the_kill_switch_and_prints_replay(capsys, tmp_path):
    exit_code = main(
        [
            "--seed",
            str(BROKEN_SEED),
            "--break-repair-replay",
            "--shrink-budget",
            "4",
            "--artifacts",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "repair-bridging" in out
    assert f"--seed {BROKEN_SEED} --break-repair-replay" in out
    artifact = tmp_path / f"seed{BROKEN_SEED}-minimized.json"
    assert artifact.exists()
    # Replaying the written artifact reproduces the same violation.
    assert main(["--scenario", str(artifact), "--no-shrink"]) == 1


def test_cli_clean_sweep_exits_zero(capsys):
    assert main(["--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "all 3 scenario(s) passed every oracle" in out


# ----------------------------------------------------------------------
# Reliable-tier detection power (the gap-free oracle)
# ----------------------------------------------------------------------
#: a steady + client-loss scenario whose lossy subscriber link tears
#: sequence holes that only gap replay repairs; found by a 40-seed sweep
#: under the exactly_once tier.
GAP_SEED = 38


def test_broken_reliable_replay_is_caught():
    scenario = generate_scenario(
        GAP_SEED, delivery_tier="exactly_once", break_reliable_replay=True
    )
    violations = check_result(run_scenario(scenario))
    assert violations, "planted reliable-replay bug went undetected"
    assert {v.oracle for v in violations} == {"gap-free"}


def test_same_seed_passes_with_reliable_replay_enabled():
    """The gap-free oracle fires on the bug, not on the lossy link."""
    scenario = generate_scenario(GAP_SEED, delivery_tier="exactly_once")
    assert not scenario.break_reliable_replay
    assert check_result(run_scenario(scenario)) == []


def test_gap_violation_shrinks_and_replays_from_json():
    scenario = generate_scenario(
        GAP_SEED, delivery_tier="exactly_once", break_reliable_replay=True
    )
    violations = check_result(run_scenario(scenario))
    minimal, min_violations, runs = shrink(scenario, violations)
    assert runs > 0
    assert min_violations and all(v.oracle == "gap-free" for v in min_violations)
    # The minimal scenario must reproduce from its own JSON alone,
    # including the tier and planted-bug axes.  The shrinker may downgrade
    # exactly_once to at_least_once (gap-free applies to both), but never
    # below a reliable tier.
    replayed = Scenario.from_json(minimal.to_json())
    assert replayed == minimal
    assert replayed.delivery_tier in ("at_least_once", "exactly_once")
    assert replayed.break_reliable_replay
    again = check_result(run_scenario(replayed))
    assert any(v.oracle == "gap-free" for v in again)


def test_cli_catches_reliable_kill_switch_and_prints_replay(capsys, tmp_path):
    exit_code = main(
        [
            "--seed",
            str(GAP_SEED),
            "--tier",
            "exactly_once",
            "--break-reliable-replay",
            "--shrink-budget",
            "4",
            "--artifacts",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "gap-free" in out
    assert (
        f"--seed {GAP_SEED} --break-reliable-replay --tier exactly_once" in out
    )
    artifact = tmp_path / f"seed{GAP_SEED}-minimized.json"
    assert artifact.exists()
    # Replaying the written artifact reproduces the same violation.
    assert main(["--scenario", str(artifact), "--no-shrink"]) == 1


# ----------------------------------------------------------------------
# Known-red soak seed (ROADMAP control-plane item (ii)); not fixed here
# ----------------------------------------------------------------------
#: ``check-soak`` runs 200 seeds nightly and has been red on this one on
#: every commit back to 82ceb73, on every tier.
SOAK_RED_SEED = 52


@pytest.mark.xfail(
    strict=True,
    reason=(
        "plan-consistency: reader3 / reader4 still hold room:0 on removed server pub1. "
        "pub1 crashes at 11.1; reader3 re-subscribes to room:0 on it at 14.7, 0.3 s before "
        "anyone suspects it, and the SUBSCRIBE is dead-lettered; pub1 restarts at 17.0 never "
        "having known the subscription and is decommissioned at 19.0; nothing -- ack "
        "timeout, ping failover, decommission notice -- moves the client in the remaining "
        "11 s.  Strict: this goes red the day the control plane fixes it."
    ),
)
def test_soak_seed_52_subscription_stranded_on_a_decommissioned_server():
    violations = check_result(run_scenario(generate_scenario(SOAK_RED_SEED)))
    assert violations == []
