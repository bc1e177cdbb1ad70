"""Declarative chaos schedules.

A :class:`ChaosSchedule` is an immutable list of fault actions, each
stamped with its (virtual) execution time and naming an exact target, so
a schedule is its own fault timeline: :meth:`ChaosSchedule.expand` only
sorts it by time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class CrashServer:
    """Hard-crash ``server`` at time ``at``."""

    at: float
    server: str


@dataclass(frozen=True)
class RestartServer:
    """Restart a previously crashed ``server`` at time ``at``."""

    at: float
    server: str


@dataclass(frozen=True)
class PartitionNodes:
    """Cut all traffic between ``a`` and ``b`` starting at ``at``.

    Endpoints naming a pub/sub server are expanded to the whole machine
    (server + dispatcher + LLA).  ``until`` schedules the matching heal;
    ``None`` means the partition holds until an explicit
    :class:`HealPartition`.
    """

    at: float
    a: str
    b: str
    until: Optional[float] = None


@dataclass(frozen=True)
class HealPartition:
    at: float
    a: str
    b: str


@dataclass(frozen=True)
class DegradeLink:
    """Inject loss and/or jitter on the ``a``--``b`` link at ``at``.

    ``loss`` is a per-message drop probability, ``jitter_s`` a uniform
    extra one-way delay bound.  ``until`` schedules automatic clearing.
    """

    at: float
    a: str
    b: str
    loss: float = 0.0
    jitter_s: float = 0.0
    until: Optional[float] = None


@dataclass(frozen=True)
class StallLla:
    """Freeze ``server``'s LLA reports at ``at`` (a gray failure: the
    broker keeps serving traffic while its heartbeat goes silent).
    ``duration_s=None`` stalls it for good."""

    at: float
    server: str
    duration_s: Optional[float] = None


FaultAction = Union[
    CrashServer,
    RestartServer,
    PartitionNodes,
    HealPartition,
    DegradeLink,
    StallLla,
]


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable fault timeline; see the module docstring.

    Construction validates the actions: per-action parameter ranges,
    restarts that reference a server never crashed (or not yet crashed at
    restart time), and overlapping partition windows on the same node
    pair.
    """

    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` on an ill-formed schedule."""
        for action in self.actions:
            _validate_params(action)
        timeline = self.expand()
        _validate_crash_restart_order(timeline)
        _validate_partition_windows(timeline)

    @classmethod
    def single_crash(
        cls,
        server: str,
        at: float,
        restart_after_s: Optional[float] = None,
    ) -> "ChaosSchedule":
        """The canonical scenario: crash one broker, optionally restart."""
        actions: List[FaultAction] = [CrashServer(at, server)]
        if restart_after_s is not None:
            actions.append(RestartServer(at + restart_after_s, server))
        return cls(tuple(actions))

    def expand(self) -> List[FaultAction]:
        """The actions sorted by time; simultaneous ones keep schedule order."""
        return sorted(self.actions, key=lambda a: a.at)


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------
def _validate_params(action: FaultAction) -> None:
    if action.at < 0.0:
        raise ValueError(f"action time must be >= 0, got {action.at} for {action}")
    if isinstance(action, (PartitionNodes, HealPartition, DegradeLink)):
        if action.a == action.b:
            raise ValueError(f"link endpoints must differ, got {action.a!r} twice")
    if isinstance(action, (PartitionNodes, DegradeLink)):
        if action.until is not None and action.until <= action.at:
            raise ValueError(
                f"window must end after it starts: at={action.at}, until={action.until}"
            )
    if isinstance(action, DegradeLink):
        if not 0.0 <= action.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {action.loss}")
        if action.jitter_s < 0.0:
            raise ValueError(f"jitter_s must be >= 0, got {action.jitter_s}")
    if isinstance(action, StallLla):
        if action.duration_s is not None and action.duration_s <= 0.0:
            raise ValueError(f"stall duration must be positive, got {action.duration_s}")


def _validate_crash_restart_order(timeline: Sequence[FaultAction]) -> None:
    """Every declarative restart must follow a crash of the same server."""
    down: set = set()
    for action in timeline:
        if isinstance(action, CrashServer):
            # crashing an already-dead server is tolerated (the injector
            # skips it), so only the restart side is strict here
            down.add(action.server)
        elif isinstance(action, RestartServer):
            if action.server not in down:
                raise ValueError(
                    f"restart of {action.server!r} at t={action.at} precedes any crash"
                )
            down.discard(action.server)


def _validate_partition_windows(timeline: Sequence[FaultAction]) -> None:
    """No two partition windows on the same node pair may overlap."""
    events: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}
    for action in timeline:
        if isinstance(action, PartitionNodes):
            pair = (min(action.a, action.b), max(action.a, action.b))
            events.setdefault(pair, []).append((action.at, 1))
            if action.until is not None:
                events[pair].append((action.until, 0))
        elif isinstance(action, HealPartition):
            pair = (min(action.a, action.b), max(action.a, action.b))
            events.setdefault(pair, []).append((action.at, 0))
    for pair, timeline in events.items():
        # closes sort before opens at the same instant, so back-to-back
        # windows (one ending exactly when the next begins) are legal.
        timeline.sort()
        open_ = False
        for _t, kind in timeline:
            if kind == 1:
                if open_:
                    raise ValueError(
                        f"overlapping partition windows on pair {pair}"
                    )
                open_ = True
            else:
                open_ = False  # healing an intact pair is a harmless no-op


# ----------------------------------------------------------------------
# Wire format (JSON-safe dicts; used by repro.check scenario files)
# ----------------------------------------------------------------------
_ACTION_CLASSES = {
    "crash": CrashServer,
    "restart": RestartServer,
    "partition": PartitionNodes,
    "heal": HealPartition,
    "degrade_link": DegradeLink,
    "stall_lla": StallLla,
}
_ACTION_KINDS = {cls: kind for kind, cls in _ACTION_CLASSES.items()}


def action_to_dict(action: FaultAction) -> Dict[str, Any]:
    """Serialize one fault action to a JSON-safe dict with a ``kind`` tag."""
    out: Dict[str, Any] = {"kind": _ACTION_KINDS[type(action)]}
    for field in fields(action):
        out[field.name] = getattr(action, field.name)
    return out


def action_from_dict(data: Mapping[str, Any]) -> FaultAction:
    """Inverse of :func:`action_to_dict`."""
    kind = data.get("kind")
    cls = _ACTION_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault action kind: {kind!r}")
    kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
    return cls(**kwargs)
