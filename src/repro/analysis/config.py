"""Analyzer configuration: the defaults below are the configuration.

There is one source -- this module.  No file is read; every caller
builds :class:`AnalysisConfig` directly.

Scope semantics
---------------
Rules that only make sense for particular modules are *scoped*:

* ``hot-paths`` -- globs where DET003 (unordered set iteration) is on.
* ``no-io`` -- globs where DET004 (blocking I/O) is on.
* ``wire-messages`` -- files whose dataclasses SLOT001 holds to the
  ``frozen=True, slots=True`` convention.

A file can also opt *itself* into a scope with a pragma comment near the
top (first :data:`PRAGMA_SCAN_LINES` lines)::

    # repro: scope[hot-path]

which is how test fixtures and new modules outside the globs participate.
DET001 (wall-clock reads) has no path scope at all: it is on everywhere,
and only a file carrying ``# repro: scope[wallclock-ok]`` in plain sight
is exempt (fixtures and out-of-tree files; nothing under ``src/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

#: How many leading lines are searched for ``# repro: scope[...]`` pragmas.
PRAGMA_SCAN_LINES = 15

#: Every rule the engine knows, in catalogue order.
DEFAULT_RULES: Tuple[str, ...] = (
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "SLOT001",
    "TRC001",
    "TRC002",
    "RNG001",
    "CFG001",
    "CFG002",
    "MSG001",
    "MUT001",
    "ARCH001",
    "HOT001",
)

#: Layer DAG: package -> packages it may import at module level, lowest
#: layer first.  ``sim`` is the foundation; ``core`` (the Dynamoth
#: control plane: balancer, dispatcher, client, plans) sits *above*
#: ``broker`` because reconfiguration orchestrates brokers, never the
#: reverse; harnesses (``check``/``lab``/``experiments``/``sweep``) sit
#: on top.  Function-level and ``TYPE_CHECKING`` imports are exempt --
#: they are the sanctioned cycle-breakers (see ARCH001).
DEFAULT_LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": (),
    "obs": (),
    "analysis": (),
    "net": ("sim",),
    "broker": ("sim", "net", "obs"),
    "core": ("sim", "net", "obs", "broker"),
    "faults": ("sim", "net", "obs", "broker", "core"),
    "workload": ("sim", "net", "obs", "broker", "core"),
    "check": ("sim", "net", "obs", "broker", "core", "faults", "workload"),
    "lab": ("sim", "net", "obs", "broker", "core", "faults", "workload", "experiments"),
    "experiments": (
        "sim",
        "net",
        "obs",
        "broker",
        "core",
        "faults",
        "workload",
    ),
    "sweep": (
        "sim",
        "net",
        "obs",
        "broker",
        "core",
        "faults",
        "workload",
        "check",
        "lab",
        "experiments",
    ),
}

#: Message routing: wire type -> actor classes that must dispatch it.
DEFAULT_PROTOCOL: Dict[str, Tuple[str, ...]] = {
    "PublishCmd": ("PubSubServer",),
    "SubscribeCmd": ("PubSubServer",),
    "UnsubscribeCmd": ("PubSubServer",),
    "ReplayRequest": ("PubSubServer",),
    "PingCmd": ("PubSubServer",),
    "Delivery": ("DynamothClient",),
    "MappingNotice": ("DynamothClient",),
    "FailureNotice": ("DynamothClient",),
    "SubscribeAck": ("DynamothClient",),
    "PongReply": ("DynamothClient",),
    "ReplayGapNotice": ("DynamothClient",),
    "ConnectionClosed": ("DynamothClient",),
    "ParkTimeout": ("DynamothClient",),
    "PlanPush": ("Dispatcher",),
    "NoMoreSubscribers": ("Dispatcher", "LoadBalancer"),
    "LoadReport": ("LoadBalancer",),
    "ServerSpawned": ("LoadBalancer",),
}

#: Wire dataclasses deliberately outside actor routing: envelopes and
#: payloads carried *inside* routed messages, plus reliability-internal
#: records that never cross an actor boundary on their own.
DEFAULT_UNROUTED: Tuple[str, ...] = (
    "AppEnvelope",
    "SwitchNotice",
    "ChannelMetricsSnapshot",
    "ReliabilityConfig",
    "CacheEntry",
    "ReplaySlice",
)

#: Files whose actor classes are parsed for ``receive`` dispatch maps.
DEFAULT_MSG_ACTORS: Tuple[str, ...] = (
    "src/repro/broker/server.py",
    "src/repro/core/client.py",
    "src/repro/core/client_recovery.py",
    "src/repro/core/dispatcher.py",
    "src/repro/core/balancer.py",
    "src/repro/core/lla.py",
)


@dataclass
class AnalysisConfig:
    """Everything the analyzer can be told; the defaults are the project's."""

    enable: Tuple[str, ...] = DEFAULT_RULES
    disable: Tuple[str, ...] = ()
    #: per-file result cache keyed on content hash (never committed)
    cache: str = ".repro-analysis-cache.json"
    #: directories skipped during discovery (explicit file arguments are
    #: always analyzed, so fixture violations stay directly checkable)
    exclude: Tuple[str, ...] = ("tests/analysis/fixtures",)
    #: DET003 is *on* under these globs
    hot_paths: Tuple[str, ...] = (
        "src/repro/broker/*",
        "src/repro/net/*",
        "src/repro/sim/*",
        "src/repro/core/*",
    )
    #: DET004 is *on* under these globs
    no_io: Tuple[str, ...] = (
        "src/repro/sim/*",
        "src/repro/broker/*",
        "src/repro/core/*",
        "src/repro/net/*",
    )
    #: SLOT001 applies to these files
    wire_messages: Tuple[str, ...] = (
        "src/repro/core/messages.py",
        "src/repro/broker/commands.py",
        "src/repro/core/reliability.py",
    )
    #: file parsed for the TRC001 event registry
    trace_schema: str = "src/repro/obs/trace.py"
    #: CFG001 classes: class name -> defining file
    config_classes: Dict[str, str] = field(
        default_factory=lambda: {
            "DynamothConfig": "src/repro/core/config.py",
            "ChaosScenarioConfig": "src/repro/experiments/chaos.py",
            "RunSpec": "src/repro/experiments/run.py",
        }
    )
    #: ARCH001 layer DAG: package -> module-level import allow-list
    layers: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    #: MSG001 routing table: message class -> dispatching actor classes
    protocol: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PROTOCOL)
    )
    #: wire types exempt from routing (payloads, reliability internals)
    unrouted_messages: Tuple[str, ...] = DEFAULT_UNROUTED
    #: files parsed for actor ``receive`` dispatch maps
    msg_actors: Tuple[str, ...] = DEFAULT_MSG_ACTORS

    def active_rules(self) -> Tuple[str, ...]:
        disabled = set(self.disable)
        return tuple(r for r in self.enable if r not in disabled)

    def content_hash_parts(self) -> str:
        """Settings that change analysis *results* (cache key component)."""
        return repr(
            (
                tuple(sorted(self.active_rules())),
                self.hot_paths,
                self.no_io,
                self.wire_messages,
                self.trace_schema,
                tuple(sorted(self.config_classes.items())),
                tuple(sorted((k, tuple(v)) for k, v in self.layers.items())),
                tuple(sorted((k, tuple(v)) for k, v in self.protocol.items())),
                tuple(sorted(self.unrouted_messages)),
                self.msg_actors,
            )
        )


def find_project_root(start: Optional[Path] = None) -> Path:
    """Walk up from ``start`` (default: cwd) to the nearest pyproject.toml."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current
