"""Deterministic-simulation property testing (the ``repro.check`` subsystem).

FoundationDB-style testing for the Dynamoth reproduction: randomized
scenarios compose workload shapes (flash crowds, hot-channel skew, churny
subscribers) with :mod:`repro.faults` chaos schedules, run them under the
deterministic simulator with the flight recorder attached, and check the
resulting trace -- the run's only record -- plus final state against
invariant *oracles*:

* loss-free reconfiguration -- publications outside fault turbulence
  windows reach every stable subscriber;
* repair-window bridging -- publications a repaired channel's new home
  accepted before the recovering subscriber re-attached are replayed;
* at-most-once delivery -- the application never sees a message id twice;
* plan consistency -- client partial plans converge to the balancer's
  plan, with the consistent-hashing fallback only for unmapped channels;
* replication soundness -- Algorithm 1's schemes never activate below
  their thresholds and respect the replication-server cap;
* ring load bounds -- the consistent-hashing fallback spreads channels
  evenly and its exclusion walk is deterministic;
* gap-free sequenced delivery -- under the reliable tiers, every
  sequence hole a client demonstrably noticed is repaired via replay
  (even through fault turbulence), unless the broker truthfully declared
  it unrecoverable;
* causal order -- with causal mode on, the application never sees a
  visible FIFO or dependency inversion it did not explicitly time out on.

Scenarios also carry a delivery-guarantee axis (``delivery_tier`` in
{at_most_once, at_least_once, exactly_once}, plus ``causal_order``),
sampled by the generator and pinnable from the CLI via ``--tier`` /
``--causal``.

Violations shrink to minimal reproducers (fewer faults, fewer channels
and clients, shorter horizons) and replay from a printed seed::

    python -m repro.check --seed 17

See ``DESIGN.md`` ("Testing strategy") for the oracle semantics and the
documented at-most-once carve-out during the repair window.
"""

from repro.check.generate import FAULT_PROFILES, WORKLOAD_SHAPES, generate_scenario
from repro.check.oracles import Violation, check_result
from repro.check.scenario import (
    RunResult,
    Scenario,
    TraceView,
    run_scenario,
    with_reliable_break,
)
from repro.check.shrink import shrink

__all__ = [
    "FAULT_PROFILES",
    "RunResult",
    "Scenario",
    "TraceView",
    "Violation",
    "WORKLOAD_SHAPES",
    "check_result",
    "generate_scenario",
    "run_scenario",
    "shrink",
    "with_reliable_break",
]
