"""Analyzer configuration, loaded from ``[tool.repro.analysis]``.

The analyzer's settings live in ``pyproject.toml`` next to the ruff/PERF
configuration so all lint tooling is declared in one place.  The code
defaults below are *identical* to the committed pyproject table: on
interpreters without a TOML parser (Python 3.10 lacks :mod:`tomllib` and
this repository takes no third-party dependencies) the analyzer silently
falls back to them, so results only diverge if the table is edited without
updating the defaults -- the self-host test pins both.

Scope semantics
---------------
Rules that only make sense for particular modules are *scoped*:

* ``wallclock-allowed`` -- globs where DET001 (wall-clock reads) is off:
  experiment harnesses and trace export genuinely need host time.
* ``hot-paths`` -- globs where DET003 (unordered set iteration) is on.
* ``no-io`` -- globs where DET004 (blocking I/O) is on.
* ``wire-messages`` -- files whose dataclasses SLOT001 holds to the
  ``frozen=True, slots=True`` convention.

A file can also opt *itself* into a scope with a pragma comment near the
top (first :data:`PRAGMA_SCAN_LINES` lines)::

    # repro: scope[hot-path]

which is how test fixtures and new modules outside the globs participate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

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
    "baselines": ("sim", "net", "obs", "broker", "core"),
    "faults": ("sim", "net", "obs", "broker", "core"),
    "workload": ("sim", "net", "obs", "broker", "core"),
    "check": ("sim", "net", "obs", "broker", "core", "faults", "workload"),
    "lab": ("sim", "net", "obs", "broker", "core", "faults", "workload"),
    "experiments": (
        "sim",
        "net",
        "obs",
        "broker",
        "core",
        "baselines",
        "faults",
        "workload",
    ),
    "sweep": (
        "sim",
        "net",
        "obs",
        "broker",
        "core",
        "baselines",
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
    "SubscribeAck": ("DynamothClient",),
    "PongReply": ("DynamothClient",),
    "ReplayGapNotice": ("DynamothClient",),
    "ConnectionClosed": ("DynamothClient",),
    "ParkTimeout": ("DynamothClient",),
    "PlanPush": ("Dispatcher",),
    "NoMoreSubscribers": (
        "Dispatcher",
        "LoadBalancer",
        "ConsistentHashingBalancer",
    ),
    "LoadReport": ("LoadBalancer", "ConsistentHashingBalancer"),
    "ServerSpawned": ("LoadBalancer", "ConsistentHashingBalancer"),
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
    "src/repro/baselines/consistent_hashing.py",
)


@dataclass
class AnalysisConfig:
    """Parsed ``[tool.repro.analysis]`` settings (or the identical defaults)."""

    enable: Tuple[str, ...] = DEFAULT_RULES
    disable: Tuple[str, ...] = ()
    #: committed file of grandfathered finding fingerprints
    baseline: str = "analysis-baseline.txt"
    #: per-file result cache keyed on content hash (never committed)
    cache: str = ".repro-analysis-cache.json"
    #: directories skipped during discovery (explicit file arguments are
    #: always analyzed, so fixture violations stay directly checkable)
    exclude: Tuple[str, ...] = ("tests/analysis/fixtures",)
    #: DET001 is *off* under these globs
    wallclock_allowed: Tuple[str, ...] = (
        "src/repro/experiments/*",
        "src/repro/obs/*",
    )
    #: DET003 is *on* under these globs
    hot_paths: Tuple[str, ...] = (
        "src/repro/broker/*",
        "src/repro/net/*",
        "src/repro/sim/*",
        "src/repro/core/*",
        "src/repro/baselines/*",
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
                self.wallclock_allowed,
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


def _load_toml(path: Path) -> Optional[Dict[str, Any]]:
    """Parse ``path`` with whichever TOML parser exists, else ``None``."""
    try:
        import tomllib as toml_parser  # Python >= 3.11
    except ImportError:  # pragma: no cover - exercised only on 3.10
        try:
            import tomli as toml_parser  # type: ignore[import-not-found,no-redef]
        except ImportError:
            return None
    try:
        with open(path, "rb") as handle:
            return toml_parser.load(handle)
    except OSError:
        return None


def _str_tuple(value: Any, fallback: Tuple[str, ...]) -> Tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    return fallback


def load_config(root: Path) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]`` from ``root/pyproject.toml``.

    Missing file, missing table, or missing TOML parser all yield the
    (identical) built-in defaults; individual keys override individually.
    """
    config = AnalysisConfig()
    data = _load_toml(root / "pyproject.toml")
    if data is None:
        return config
    table = data.get("tool", {}).get("repro", {}).get("analysis", {})
    if not isinstance(table, dict):
        return config
    config.enable = _str_tuple(table.get("enable"), config.enable)
    config.disable = _str_tuple(table.get("disable"), config.disable)
    if isinstance(table.get("baseline"), str):
        config.baseline = table["baseline"]
    if isinstance(table.get("cache"), str):
        config.cache = table["cache"]
    config.exclude = _str_tuple(table.get("exclude"), config.exclude)
    config.wallclock_allowed = _str_tuple(
        table.get("wallclock-allowed"), config.wallclock_allowed
    )
    config.hot_paths = _str_tuple(table.get("hot-paths"), config.hot_paths)
    config.no_io = _str_tuple(table.get("no-io"), config.no_io)
    config.wire_messages = _str_tuple(table.get("wire-messages"), config.wire_messages)
    if isinstance(table.get("trace-schema"), str):
        config.trace_schema = table["trace-schema"]
    raw_classes = table.get("config-classes")
    if isinstance(raw_classes, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in raw_classes.items()
    ):
        config.config_classes = dict(raw_classes)
    config.layers = _str_list_table(table.get("layers"), config.layers)
    config.protocol = _str_list_table(table.get("protocol"), config.protocol)
    config.unrouted_messages = _str_tuple(
        table.get("unrouted-messages"), config.unrouted_messages
    )
    config.msg_actors = _str_tuple(table.get("msg-actors"), config.msg_actors)
    return config


def _str_list_table(
    value: Any, fallback: Dict[str, Tuple[str, ...]]
) -> Dict[str, Tuple[str, ...]]:
    """A TOML table of string lists (the layers / protocol shape)."""
    if not isinstance(value, dict):
        return fallback
    out: Dict[str, Tuple[str, ...]] = {}
    for key, entry in value.items():
        if not isinstance(key, str):
            return fallback
        if not (isinstance(entry, list) and all(isinstance(v, str) for v in entry)):
            return fallback
        out[key] = tuple(entry)
    return out


def find_project_root(start: Optional[Path] = None) -> Path:
    """Walk up from ``start`` (default: cwd) to the nearest pyproject.toml."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current
