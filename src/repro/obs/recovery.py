"""Time-to-recover: one reading of a broker crash's trace events.

:class:`RecoveryWatch` turns the events of one crash into its milestones:
detection, plan repair, client failovers and the slowest failed-over
subscriber delivering again.  The chaos scenario runs it live, as a tracer
observer; ``python -m repro.obs summary`` replays a recorded trace through
it, so both report the same figures from the same rule.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.obs.trace import (
    ClientFailoverEvent,
    ClientReconnectEvent,
    DeliveryEvent,
    PlanRepairDoneEvent,
    ServerCrashEvent,
    ServerFailureConfirmedEvent,
    TraceEvent,
    Tracer,
)


class RecoveryWatch:
    """Recovery milestones of one victim's crash, resolved as events arrive.

    Events arrive in virtual time order, which lets every milestone be
    resolved online:

    * crash / detection / repair: first matching event for the victim;
    * recovery: each :class:`ClientFailoverEvent` opens a pending entry
      for that client, closed by its first strictly-later delivery; the
      recovery time is the slowest such close.

    Live (:meth:`attach`), the watch works with a streaming sink that keeps
    no event buffer, and hears deliveries only while an entry is open:
    :meth:`on_delivery` is registered for :class:`DeliveryEvent` when the
    first entry opens and removed when the last one closes.  Offline,
    :meth:`replay` feeds it a recorded stream.
    """

    #: The event classes :meth:`__call__` acts on.
    EVENT_TYPES = (
        ServerCrashEvent, ClientReconnectEvent, ServerFailureConfirmedEvent,
        PlanRepairDoneEvent, ClientFailoverEvent,
    )

    def __init__(self, victim: str) -> None:
        self.victim = victim
        self.crash_t: Optional[float] = None
        self.detect_t: Optional[float] = None
        self.repair_t: Optional[float] = None
        self.failover_count = 0
        self.reconnects = 0
        #: client -> failover time, unresolved until a later delivery
        self._awaiting: Dict[str, float] = {}
        self._recovered_t: Optional[float] = None
        self._tracer: Optional[Tracer] = None

    def attach(self, tracer: Tracer) -> None:
        """Observe ``tracer``'s milestone events from its next emit on."""
        self._tracer = tracer
        tracer.add_observer(self, *self.EVENT_TYPES)

    def replay(self, events: Iterable[TraceEvent]) -> "RecoveryWatch":
        """Feed a recorded stream, each event where a tracer would have."""
        milestones = self.EVENT_TYPES
        for event in events:
            et = type(event)
            if et is DeliveryEvent:
                if self._awaiting:
                    self.on_delivery(event)  # type: ignore[arg-type]
            elif et in milestones:
                self(event)
        return self

    def __call__(self, event: TraceEvent) -> None:
        et = type(event)
        if et is ServerCrashEvent:
            if event.server == self.victim and self.crash_t is None:  # type: ignore[attr-defined]
                self.crash_t = event.t
        elif et is ClientReconnectEvent:
            self.reconnects += 1
        elif self.crash_t is not None:
            if et is ServerFailureConfirmedEvent:
                if event.server == self.victim and self.detect_t is None:  # type: ignore[attr-defined]
                    self.detect_t = event.t
            elif et is PlanRepairDoneEvent:
                if event.server == self.victim and self.repair_t is None:  # type: ignore[attr-defined]
                    self.repair_t = event.t
            elif et is ClientFailoverEvent and event.server == self.victim:  # type: ignore[attr-defined]
                self.failover_count += 1
                client = event.client  # type: ignore[attr-defined]
                awaiting = self._awaiting
                if client not in awaiting:
                    if not awaiting and self._tracer is not None:
                        self._tracer.add_observer(self.on_delivery, DeliveryEvent)
                    awaiting[client] = event.t

    def on_delivery(self, event: DeliveryEvent) -> None:
        """Close the receiving client's entry, if it failed over earlier."""
        awaiting = self._awaiting
        failed_at = awaiting.get(event.client)
        if failed_at is not None and event.t > failed_at:
            del awaiting[event.client]
            if self._recovered_t is None or event.t > self._recovered_t:
                self._recovered_t = event.t
            if not awaiting and self._tracer is not None:
                self._tracer.remove_observer(self.on_delivery)

    @property
    def detection_s(self) -> Optional[float]:
        if self.crash_t is None or self.detect_t is None:
            return None
        return self.detect_t - self.crash_t

    @property
    def repair_s(self) -> Optional[float]:
        if self.crash_t is None or self.repair_t is None:
            return None
        return self.repair_t - self.crash_t

    @property
    def recovery_s(self) -> Optional[float]:
        if (
            self.crash_t is None
            or not self.failover_count
            or self._awaiting
            or self._recovered_t is None
        ):
            return None
        return self._recovered_t - self.crash_t
