"""Byte witness: pinned scenario seeds must hash to the recorded traces.

``golden_trace_sha256.json`` holds the ``trace_sha256`` that
``python -m repro.sweep check`` emits (sha256 of the full schema-2 trace
body) for a fixed scenario set: the generator's own seeds 0-19, plus
three fault profiles (crash, client-partition, client-loss) pinned to
every delivery tier x causal on/off -- seeds on which the tiers really
diverge (four distinct traces each; at_least_once and exactly_once differ
only in suppressed duplicates, which the trace does not record) -- plus
seed 38, the one pinned scenario whose reliable tiers *need* gap replay
(``tests/check/test_detection.py::GAP_SEED``: with replay disabled the
gap-free oracle fails it, where seed 12 passes every oracle).  A
refactor that claims "same bytes" keeps this file untouched; a change that
*means* to alter behaviour regenerates it in the same commit and says why:

    PYTHONPATH=src python tests/check/test_golden_trace.py

The digests must not depend on the hash seed: run this test under
``PYTHONHASHSEED`` 0, 1 and 3 (3 is where the full-size fig 7 diverges
from 0 and 1).

Last re-pinned when the broker began deciding a publication's fan-out on
its arrival instead of at its CPU completion: the fan-out's WAN latency
draw and its ``fanout`` event moved from the completion to the arrival,
so the shared transport RNG interleaves differently.  Every re-pinned
scenario passes every oracle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sweep.workers import CheckTask, check_worker

GOLDEN = Path(__file__).with_name("golden_trace_sha256.json")

TIERS = ("at_most_once", "at_least_once", "exactly_once")
#: seeds whose fault profile is crash / client-partition / client-loss,
#: and a client-loss seed whose holes only gap replay repairs
PINNED_SEEDS = (3, 7, 12, 38)

_Case = Tuple[int, Optional[str], Optional[bool]]


def cases() -> List[_Case]:
    natural: List[_Case] = [(seed, None, None) for seed in range(20)]
    pinned: List[_Case] = [
        (seed, tier, causal)
        for seed in PINNED_SEEDS
        for tier in TIERS
        for causal in (False, True)
    ]
    return natural + pinned


def key(case: _Case) -> str:
    seed, tier, causal = case
    if tier is None:
        return str(seed)
    return f"{seed}:{tier}:{'causal' if causal else 'plain'}"


def compute() -> Dict[str, str]:
    return {
        key(case): check_worker(
            CheckTask(case[0], delivery_tier=case[1], causal_order=case[2])
        )["trace_sha256"]
        for case in cases()
    }


def test_pinned_seeds_match_golden_trace_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(key(case) for case in cases())
    computed = compute()
    changed = sorted(k for k in golden if computed[k] != golden[k])
    assert not changed, f"trace bytes changed for: {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
