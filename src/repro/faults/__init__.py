"""Fault injection and chaos schedules (the ``repro.faults`` subsystem).

Declarative, seed-deterministic failure scenarios for the simulated
Dynamoth deployment: crash/restart pub/sub servers, partition or degrade
network links, and stall LLA report streams -- all through hooks in the
cluster, transport and kernel, never through per-scenario broker forks.

The recovery counterpart lives in the production code paths themselves:
heartbeat failure detection and plan repair in
:mod:`repro.core.balancer`, failure-aware routing and repair buffering in
:mod:`repro.core.dispatcher`, and ping-probing plus backoff resubscribe in
:mod:`repro.core.client`.
"""

from repro.faults.injector import FaultInjector
from repro.faults.netfaults import NetworkFaultPlane
from repro.faults.schedule import (
    ChaosSchedule,
    CrashServer,
    DegradeLink,
    HealPartition,
    PartitionNodes,
    RestartServer,
    StallLla,
    action_from_dict,
    action_to_dict,
)

__all__ = [
    "ChaosSchedule",
    "CrashServer",
    "DegradeLink",
    "FaultInjector",
    "HealPartition",
    "NetworkFaultPlane",
    "PartitionNodes",
    "RestartServer",
    "StallLla",
    "action_from_dict",
    "action_to_dict",
]
