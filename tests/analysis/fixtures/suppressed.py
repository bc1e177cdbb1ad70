"""Violations silenced by inline ``# repro: allow[RULE]`` suppressions."""
# repro: scope[hot-path,no-io,layer-broker]

import time

from repro.core.plan import Plan  # repro: allow[ARCH001]


def export_checkpoint(path: str, payload: bytes) -> float:
    with open(path, "wb") as handle:  # repro: allow[DET004]
        handle.write(payload)
    return time.time()  # repro: allow[DET001]


def drain(members: set) -> int:
    total = 0
    for member in members:  # repro: allow[DET003]
        total += len(member)
    return total


class LoadBalancer:
    def receive(self, message) -> None:  # repro: allow[MSG001]
        raise NotImplementedError(type(message).__name__)


def current_version(plan: Plan) -> int:
    return plan.version
