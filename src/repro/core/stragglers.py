"""Straggler registry: which servers may still hold stale subscribers.

When a plan change displaces a channel from a server, subscribers stuck
behind slow links may keep their subscription there for a while; the
dispatchers of the channel's current servers forward publications toward
such *straggler* servers until they announce themselves drained or a
timeout passes (section IV-A.5).

With *chained* migrations (pub1 -> pub2 -> pub3 in quick succession) the
knowledge "pub1 may still hold subscribers" must survive across plan
versions and reach dispatchers that did not exist when the first move
happened.  The load balancer and every dispatcher therefore keep one
:class:`StragglerRegistry` each, fed from the same plan diffs by the same
rule; the balancer ships its snapshot inside every plan push and
dispatchers :meth:`~StragglerRegistry.merge` it into their own.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

from repro.core.plan import ChannelMapping, ReplicationMode

_ALL_SUBSCRIBERS = ReplicationMode.ALL_SUBSCRIBERS


class StragglerRegistry:
    """Per-channel forwarding deadlines for recently displaced servers.

    ``owner`` is the server a dispatcher runs next to: it never forwards
    toward itself, so it is never a target and never merged in.  The
    balancer's registry has no owner.
    """

    def __init__(self, timeout_s: float, owner: Optional[str] = None) -> None:
        self.timeout_s = timeout_s
        self.owner = owner
        #: channel -> {server: forwarding deadline}, each channel's servers
        #: in the order they were first recorded
        self.entries: Dict[str, Dict[str, float]] = {}

    def record(
        self,
        changed: Mapping[str, Tuple[ChannelMapping, ChannelMapping]],
        now: float,
    ) -> None:
        """Register every displaced server of every changed channel.

        ``changed`` is a :meth:`~repro.core.plan.Plan.diff`.  Under
        all-subscribers, servers staying in the replica set count too: a
        subscriber holding only the old replica misses publications
        landing on the new ones.  Under the other modes, publishers cover
        shared servers directly, so only fully-displaced servers are
        stragglers.
        """
        deadline = now + self.timeout_s
        entries = self.entries
        for channel, (old, new) in changed.items():
            sources = set(old.servers)
            if new.mode is not _ALL_SUBSCRIBERS:
                sources -= set(new.servers)
            if not sources:
                continue
            registry = entries.setdefault(channel, {})
            for server in sorted(sources):
                if registry.get(server, 0.0) < deadline:
                    registry[server] = deadline

    def merge(self, snapshot: Mapping[str, Mapping[str, float]]) -> None:
        """Fold in another registry's :meth:`snapshot` (a plan push's)."""
        owner = self.owner
        for channel, pushed in snapshot.items():
            registry = self.entries.setdefault(channel, {})
            for server, deadline in pushed.items():
                if server != owner and registry.get(server, 0.0) < deadline:
                    registry[server] = deadline

    def drain(self, channel: str, server_id: str) -> None:
        """A server announced it holds no stale subscribers anymore."""
        registry = self.entries.get(channel)
        if registry is not None:
            registry.pop(server_id, None)
            if not registry:
                del self.entries[channel]

    def drop_dead(self, failed: AbstractSet[str]) -> None:
        """Forwarding toward a confirmed-dead server is wasted egress."""
        entries = self.entries
        for channel in list(entries):
            registry = entries[channel]
            for server in list(registry):
                if server in failed:
                    del registry[server]
            if not registry:
                del entries[channel]

    def prune(self, now: float) -> None:
        """Drop every entry whose deadline has passed."""
        for channel in list(self.entries):
            registry = self.entries[channel]
            for server, deadline in list(registry.items()):
                if deadline <= now:
                    del registry[server]
            if not registry:
                del self.entries[channel]

    def targets(
        self,
        channel: str,
        mapping: ChannelMapping,
        now: float,
        failed: AbstractSet[str],
    ) -> List[str]:
        """Stragglers of ``channel`` that still need forwarded copies.

        Expired and dead entries are pruned on the way.  The owner and,
        outside all-subscribers, members of ``mapping`` receive the
        traffic directly and are skipped.
        """
        registry = self.entries.get(channel)
        if not registry:
            return []
        direct = () if mapping.mode is _ALL_SUBSCRIBERS else mapping.servers
        owner = self.owner
        targets = []
        for server, deadline in list(registry.items()):
            if deadline <= now or server in failed:
                del registry[server]
            elif server != owner and server not in direct:
                targets.append(server)
        if not registry:
            del self.entries[channel]
        return targets

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A copy suitable for embedding in a plan push."""
        return {c: dict(r) for c, r in self.entries.items()}
