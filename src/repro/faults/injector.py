"""The fault injector: arms a chaos schedule against a live cluster.

The injector owns two dedicated RNG streams -- ``"chaos"`` for expanding
stochastic schedules and ``"chaos-net"`` for the network fault plane -- so
arming a schedule never perturbs any other stream: a run with an armed but
empty schedule is byte-identical to an uninjected run of the same seed.
"""

from __future__ import annotations

from typing import List

from repro.core.cluster import DynamothCluster
from repro.faults.netfaults import NetworkFaultPlane
from repro.faults.schedule import (
    ChaosSchedule,
    ConcreteAction,
    CrashServer,
    DegradeLink,
    HealPartition,
    PartitionNodes,
    RestartServer,
    StallLla,
)
from repro.obs.trace import LinkFaultEvent, PartitionEvent, PartitionHealedEvent


class FaultInjector:
    """Schedules and executes one :class:`ChaosSchedule` on a cluster."""

    def __init__(self, cluster: DynamothCluster, schedule: ChaosSchedule):
        self.cluster = cluster
        self.schedule = schedule
        self._rng = cluster.rng.stream("chaos")
        self.plane = NetworkFaultPlane(cluster.rng.stream("chaos-net"))
        self._armed = False
        #: the expanded, concrete fault timeline (filled by :meth:`arm`)
        self.timeline: List[ConcreteAction] = []

        # --- counters ---
        self.crashes = 0
        self.restarts = 0
        self.partitions = 0
        self.heals = 0
        self.link_faults = 0
        self.lla_stalls = 0

    def arm(self) -> List[ConcreteAction]:
        """Schedule every action.

        The network fault plane goes onto the transport with its first
        rule, not here (:meth:`_plane_changed`).  Returns the concrete
        timeline (stochastic processes expanded), so experiments can record
        exactly which faults will fire.
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        self.timeline = self.schedule.expand(
            self._rng, sorted(self.cluster.servers)
        )
        for action in self.timeline:
            self.cluster.sim.schedule_at(action.at, self._execute, action)
        return self.timeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, action: ConcreteAction) -> None:
        if isinstance(action, CrashServer):
            if action.server in self.cluster.servers:
                self.cluster.crash_server(action.server)
                self.crashes += 1
        elif isinstance(action, RestartServer):
            if action.server in self.cluster.crashed_servers:
                self.cluster.restart_server(action.server)
                self.restarts += 1
        elif isinstance(action, PartitionNodes):
            self._partition(action.a, action.b)
            if action.until is not None:
                self.cluster.sim.schedule_at(
                    action.until, self._execute, HealPartition(action.until, action.a, action.b)
                )
        elif isinstance(action, HealPartition):
            self._heal(action.a, action.b)
        elif isinstance(action, DegradeLink):
            self._degrade(action.a, action.b, action.loss, action.jitter_s)
            if action.until is not None:
                self.cluster.sim.schedule_at(
                    action.until,
                    self._execute,
                    DegradeLink(action.until, action.a, action.b, 0.0, 0.0),
                )
        elif isinstance(action, StallLla):
            self._stall(action)
        else:  # pragma: no cover - schedule.expand only emits the above
            raise TypeError(f"unknown fault action: {type(action).__name__}")

    def _group(self, endpoint: str) -> tuple:
        """A server endpoint means the whole machine, not one socket."""
        if endpoint in self.cluster.servers or endpoint in self.cluster.crashed_servers:
            return self.cluster.colocated_node_ids(endpoint)
        return (endpoint,)

    def _plane_changed(self) -> None:
        """Keep the plane on the transport exactly while it has rules.

        An idle plane answers ``0.0`` to every send and fan-out destination
        without touching its RNG, so a crash-only schedule (or the healthy
        stretch before and after a partition) would pay one frame per
        message to learn nothing; off the transport, the same bits cost one
        attribute check.
        """
        self.cluster.transport.fault_plane = self.plane if self.plane.active else None

    def heal_network(self) -> None:
        """Drop every partition and link rule at once (a harness entering
        its settle window)."""
        self.plane.clear()
        self._plane_changed()

    def _partition(self, a: str, b: str) -> None:
        for node_a in self._group(a):
            for node_b in self._group(b):
                self.plane.partition(node_a, node_b)
        self._plane_changed()
        self.partitions += 1
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.emit(PartitionEvent(self.cluster.sim.now, a, b))

    def _heal(self, a: str, b: str) -> None:
        for node_a in self._group(a):
            for node_b in self._group(b):
                self.plane.heal(node_a, node_b)
        self._plane_changed()
        self.heals += 1
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.emit(PartitionHealedEvent(self.cluster.sim.now, a, b))

    def _degrade(self, a: str, b: str, loss: float, jitter_s: float) -> None:
        for node_a in self._group(a):
            for node_b in self._group(b):
                self.plane.degrade(node_a, node_b, loss, jitter_s)
        self._plane_changed()
        self.link_faults += 1
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.emit(LinkFaultEvent(self.cluster.sim.now, a, b, loss, jitter_s))

    def _stall(self, action: StallLla) -> None:
        if action.server not in self.cluster.llas:
            return  # crashed (or decommissioned) in the meantime
        self.cluster.stall_lla(action.server)
        self.lla_stalls += 1
        if action.duration_s is not None:
            self.cluster.sim.schedule(action.duration_s, self._resume_lla, action.server)

    def _resume_lla(self, server_id: str) -> None:
        if server_id in self.cluster.llas:
            self.cluster.resume_lla(server_id)
