"""Plans: the channel -> servers lookup structure at the heart of Dynamoth.

A :class:`Plan` is "a more elaborate version of a lookup table where the
keys are the channels and the values are the list of servers that should be
used for each channel" (section II-A), extended with the channel-level
replication mode.  A channel without an explicit entry falls back to
consistent hashing over the bootstrap ring ("plan 0", section II-C).

Every :class:`ChannelMapping` carries the plan version at which it last
changed; publications embed the version their publisher acted on, which is
how dispatchers detect stale publishers during reconfiguration.
"""

from __future__ import annotations

import enum
from random import Random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.hashing import VNODES_PER_SERVER, ConsistentHashRing


class ReplicationMode(enum.Enum):
    """How a channel is spread over its servers (Figure 2)."""

    #: One server handles everything (Figure 2a).
    SINGLE = "single"
    #: Subscribers subscribe on *all* servers; each publication goes to one
    #: random server.  For publication-heavy channels (Figure 2b).
    ALL_SUBSCRIBERS = "all-subscribers"
    #: Publishers publish to *all* servers; each subscriber subscribes on
    #: one.  For subscriber-heavy channels (Figure 2c).
    ALL_PUBLISHERS = "all-publishers"


@dataclass(frozen=True)
class ChannelMapping:
    """The servers (and scheme) serving one channel.

    ``version`` is the plan version at which this mapping last changed;
    version 0 denotes the consistent-hashing fallback.
    """

    mode: ReplicationMode
    servers: Tuple[str, ...]
    version: int = 0

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError("a mapping needs at least one server")
        if len(set(self.servers)) != len(self.servers):
            raise ValueError(f"duplicate servers in mapping: {self.servers}")
        if self.mode is ReplicationMode.SINGLE and len(self.servers) != 1:
            raise ValueError("SINGLE mapping must have exactly one server")
        if self.mode is not ReplicationMode.SINGLE and len(self.servers) < 2:
            raise ValueError(f"{self.mode.value} mapping needs >= 2 servers")

    # ------------------------------------------------------------------
    # Routing rules (Figure 2)
    # ------------------------------------------------------------------
    def publish_targets(self, rng: Random) -> Tuple[str, ...]:
        """Servers a publisher must send one publication to."""
        if self.mode is ReplicationMode.ALL_PUBLISHERS:
            return self.servers
        if self.mode is ReplicationMode.ALL_SUBSCRIBERS:
            return (rng.choice(self.servers),)
        return self.servers  # SINGLE: the one server

    def is_valid_subscription_set(self, subscribed: Iterable[str]) -> bool:
        """Whether a subscriber holding ``subscribed`` needs no change."""
        held = set(subscribed)
        if not held <= set(self.servers):
            return False
        if self.mode is ReplicationMode.ALL_SUBSCRIBERS:
            return held == set(self.servers)
        return len(held) == 1

    def same_assignment(self, other: "ChannelMapping") -> bool:
        """Equality ignoring the version stamp."""
        return self.mode is other.mode and set(self.servers) == set(other.servers)

    # ------------------------------------------------------------------
    # Wire format (JSON-safe dicts; used by trace tooling and repro.check)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode.value,
            "servers": list(self.servers),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChannelMapping":
        return cls(
            ReplicationMode(data["mode"]),
            tuple(data["servers"]),
            int(data.get("version", 0)),
        )


class Plan:
    """An immutable global channel assignment.

    Channels absent from ``mappings`` resolve through the bootstrap
    consistent-hashing ring with ``version=0``.
    """

    __slots__ = ("version", "_mappings", "ring", "active_servers")

    def __init__(
        self,
        version: int,
        mappings: Mapping[str, ChannelMapping],
        ring: ConsistentHashRing,
        active_servers: Tuple[str, ...],
    ) -> None:
        self.version = version
        self._mappings: Dict[str, ChannelMapping] = dict(mappings)
        self.ring = ring
        #: Servers currently rented; a mapping may only reference these.
        self.active_servers = tuple(active_servers)
        for channel, mapping in self._mappings.items():
            unknown = set(mapping.servers) - set(active_servers)
            if unknown:
                raise ValueError(
                    f"mapping for {channel!r} references inactive servers {sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(cls, servers: Iterable[str], vnodes: int = VNODES_PER_SERVER) -> "Plan":
        """"Plan 0": no explicit mappings, pure consistent hashing."""
        servers = tuple(servers)
        ring = ConsistentHashRing(servers, vnodes=vnodes)
        return cls(0, {}, ring, servers)

    def evolve(
        self,
        *,
        mappings: Optional[Mapping[str, ChannelMapping]] = None,
        active_servers: Optional[Iterable[str]] = None,
    ) -> "Plan":
        """Produce the next plan version with updated state.

        Mappings passed with a stale version stamp are re-stamped with the
        new plan version *iff* they differ from the current assignment;
        unchanged assignments keep their original stamp so clients are not
        needlessly notified.
        """
        new_version = self.version + 1
        merged = dict(self._mappings)
        if mappings is not None:
            for channel, proposed in mappings.items():
                current = self.mapping(channel)
                if current.same_assignment(proposed):
                    continue
                merged[channel] = ChannelMapping(
                    proposed.mode, proposed.servers, new_version
                )
        servers = tuple(active_servers) if active_servers is not None else self.active_servers
        return Plan(new_version, merged, self.ring, servers)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def mapping(self, channel: str) -> ChannelMapping:
        """The mapping for ``channel`` (explicit or CH fallback)."""
        explicit = self._mappings.get(channel)
        if explicit is not None:
            return explicit
        return ChannelMapping(ReplicationMode.SINGLE, (self.ring.lookup(channel),), 0)

    def explicit_mapping(self, channel: str) -> Optional[ChannelMapping]:
        return self._mappings.get(channel)

    def explicit_channels(self) -> List[str]:
        return list(self._mappings)

    def channels_on(self, server_id: str) -> List[str]:
        """Explicitly mapped channels that involve ``server_id``."""
        return [c for c, m in self._mappings.items() if server_id in m.servers]

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot; :meth:`from_dict` round-trips it losslessly.

        The ring is stored as its member servers plus the vnode count --
        placement is derived from stable md5 hashing, so rebuilding the
        ring from membership reproduces the identical point set.
        """
        return {
            "version": self.version,
            "active_servers": list(self.active_servers),
            "ring": {"servers": self.ring.servers, "vnodes": self.ring.vnodes},
            "mappings": {
                channel: self._mappings[channel].to_dict()
                for channel in sorted(self._mappings)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Plan":
        ring_spec = data["ring"]
        ring = ConsistentHashRing(ring_spec["servers"], vnodes=ring_spec["vnodes"])
        mappings = {
            channel: ChannelMapping.from_dict(raw)
            for channel, raw in data["mappings"].items()
        }
        return cls(
            int(data["version"]), mappings, ring, tuple(data["active_servers"])
        )

    def diff(self, newer: "Plan") -> Dict[str, Tuple[ChannelMapping, ChannelMapping]]:
        """Channels whose assignment differs between ``self`` and ``newer``.

        Returns ``{channel: (old_mapping, new_mapping)}``.  Only channels
        explicitly mapped in at least one of the two plans are considered
        (a channel in neither is CH-resolved identically by both).
        """
        changed: Dict[str, Tuple[ChannelMapping, ChannelMapping]] = {}
        # sorted so every consumer iterates deterministically regardless
        # of the process's string-hash seed
        candidates = sorted(set(self._mappings) | set(newer._mappings))
        for channel in candidates:
            old = self.mapping(channel)
            new = newer.mapping(channel)
            if not old.same_assignment(new):
                changed[channel] = (old, new)
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Plan v{self.version} explicit={len(self._mappings)} "
            f"servers={len(self.active_servers)}>"
        )
