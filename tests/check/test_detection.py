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

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check import check_result, generate_scenario, run_scenario, shrink
from repro.check.cli import main
from repro.check.scenario import Scenario
from repro.experiments.chaos import ChaosScenarioConfig, run_chaos
from repro.obs.trace import ReplayEvent, UnsubscribeEvent

ROOT = Path(__file__).resolve().parents[2]

#: a generated scenario (churny + double-crash) whose timing lands a
#: publication in the repair window; found by an 800-seed sweep and
#: locked in as the acceptance case.  Of seeds 0-799, three see the
#: planted bug caught by repair-bridging alone and pass every oracle
#: without it: 188, whose violation no smaller scenario reproduces, 468
#: and 772.  (244 was one until probes timed out on the link's measured
#: clock: its subscribers now fail over before the repair plan arrives.)
BROKEN_SEED = 468


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


def test_bare_cli_exits_2_and_names_the_soak_driver():
    """``repro.check`` runs one scenario; soaking seeds is ``repro.sweep
    check``, and a bare invocation says so instead of running anything."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "repro.sweep check" in proc.stderr
    assert "Traceback" not in proc.stderr


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
# Crash-restart soak seeds, red until probes ran on the link's clock
# ----------------------------------------------------------------------
def test_soak_seed_52_subscription_stranded_on_a_decommissioned_server():
    """pub1 crashes at 11.1 and restarts empty at 17.0; the balancer
    decommissions it at 19.0.  reader3 re-subscribes room:0 at 14.7.  While
    a probe waited a whole interval, nobody suspected pub1 before 15.0, so
    that SUBSCRIBE went to pub1 and was dead-lettered, and nothing moved the
    client again.  On the measured clock reader3 suspects pub1 at 13.5 (and
    reader4 at 13.4, before its 15.8 re-subscribe), so both re-subscribe on
    pub2.  A SUBSCRIBE sent into the window between a crash and the first
    suspicion is still dead-lettered and never retried; this seed no longer
    lands one there."""
    violations = check_result(run_scenario(generate_scenario(52)))
    assert violations == []


@pytest.mark.parametrize("seed", [58, 84, 86, 170])
def test_soak_seed_passes(seed):
    """58 and 84 (churny + crash-restart) failed plan-consistency like 52;
    86 (churny + client-loss) failed loss-free on the sampled tiers.  On 170
    (churny + client-loss, exactly_once) reader4's room:1 re-SUBSCRIBE at
    10.0 can be lost on its 33 % link, and nothing re-sent it: red while
    only the RNG's draws spared it, green once the ping tick re-sends an
    unacked SUBSCRIBE."""
    assert check_result(run_scenario(generate_scenario(seed))) == []


#: Seed 86 on ``at_most_once`` is not a lost SUBSCRIBE: reader6's pings to
#: pub1 cross a 52 %-loss link, so it suspects the live pub1 at t = 10.01
#: and fails over to pub2.  The balancer never confirms pub1, so room:2's
#: publishers stay on pub1; the harness's ``failed_server_ttl_s=600``
#: keeps reader6 away, and the tick stops probing pub1, so no pong lifts
#: the suspicion.  Red until a suspicion of a live server can be lifted.
_SUSPECTED_LIVE_SERVER = (
    "4 loss-free violations: reader6 misses room:2 publications writer0..3:58 "
    "sent to pub1 at t ~ 23.5 (it suspects the live pub1 across a lossy link)"
)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            86,
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=_SUSPECTED_LIVE_SERVER
            ),
        ),
        170,
    ],
)
def test_soak_seed_passes_at_most_once(seed):
    """``--tier at_most_once --no-causal``: the same churny + client-loss
    seeds with neither reliable stage.  On 170 reader4's room:1
    re-SUBSCRIBE is lost on its 33 % link; the ping tick re-sends an
    unacked SUBSCRIBE on every tier, so it is green."""
    scenario = generate_scenario(seed, delivery_tier="at_most_once", causal_order=False)
    assert check_result(run_scenario(scenario)) == []


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_resubscribe_replays_no_history_exactly_once(seed):
    """Chaos smoke on ``exactly_once``: no broker replays a channel's
    history to a client that left that channel earlier in the run.  A
    straggler ``Delivery`` that reaches the client after its unsubscribe
    used to re-create the sequence stream ``unsubscribe`` dropped, so the
    next SUBSCRIBE resumed from it (13 replays of 841 messages on seed 0,
    16 of 1 557 on seed 3); ``receive`` keeps a left channel's deliveries
    out of both stages."""
    config = replace(ChaosScenarioConfig.smoke(), seed=seed, delivery_tier="exactly_once")
    left = set()
    stale = []
    for event in run_chaos(config).tracer.events:
        if type(event) is UnsubscribeEvent:
            left.add((event.client, event.channel))
        elif type(event) is ReplayEvent and (event.client, event.channel) in left:
            stale.append(event)
    assert stale == []
