"""Network fault plane: partitions, loss and jitter per node pair.

Implements the :class:`repro.net.transport.FaultPlane` protocol.  The
plane is consulted while it has rules: the :class:`~repro.faults.FaultInjector`
puts it on the transport with its first rule and takes it off with its
last, and in between the transport asks it about each message between
two nodes in ``nodes``.  A pair without a rule gets ``0.0`` and no RNG
draw, so a plane installed idle (a test's, say) still leaves the
simulation byte-identical to one with no plane at all.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Optional, Set, Tuple


class NetworkFaultPlane:
    """Mutable rule set the transport consults while installed.

    Rules are symmetric (keyed on the unordered node pair).  Randomness --
    loss sampling and jitter draws -- comes exclusively from the dedicated
    ``"chaos-net"`` stream passed in, and is consumed only for messages
    that actually cross a degraded link, keeping everything else on its
    usual deterministic course.
    """

    def __init__(self, rng: Random) -> None:
        self._rng = rng
        #: unordered pairs with all traffic cut
        self._cut: Set[Tuple[str, str]] = set()
        #: unordered pair -> (loss probability, jitter bound seconds)
        self._links: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: node -> endpoints it holds among the live rules, kept in step one
        #: rule at a time (never rebuilt: 600 rules would make that quadratic)
        self.nodes: Dict[str, int] = {}
        self.messages_cut = 0
        self.messages_lost = 0

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _count(self, key: Tuple[str, str], delta: int) -> None:
        """A rule on ``key`` appeared (+1) or went away (-1)."""
        for node in key:
            held = self.nodes[node] = self.nodes.get(node, 0) + delta
            if not held:
                del self.nodes[node]

    # ------------------------------------------------------------------
    # Rule management (driven by the FaultInjector)
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        key = self._key(a, b)
        if key not in self._cut:
            self._cut.add(key)
            self._count(key, 1)

    def heal(self, a: str, b: str) -> None:
        key = self._key(a, b)
        if key in self._cut:
            self._cut.remove(key)
            self._count(key, -1)

    def degrade(self, a: str, b: str, loss: float, jitter_s: float) -> None:
        """Set (or, with both zero, clear) loss/jitter on a link."""
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {loss}")
        if jitter_s < 0.0:
            raise ValueError(f"jitter_s must be >= 0, got {jitter_s}")
        key = self._key(a, b)
        if loss <= 0.0 and jitter_s <= 0.0:
            if self._links.pop(key, None) is not None:
                self._count(key, -1)
        else:
            if key not in self._links:
                self._count(key, 1)
            self._links[key] = (loss, jitter_s)

    def clear(self) -> None:
        self._cut.clear()
        self._links.clear()
        self.nodes.clear()

    @property
    def active(self) -> bool:
        return bool(self._cut or self._links)

    # ------------------------------------------------------------------
    # FaultPlane protocol
    # ------------------------------------------------------------------
    def apply(self, src_id: str, dst_id: str) -> Optional[float]:
        if not self._cut and not self._links:
            return 0.0
        key = (src_id, dst_id) if src_id <= dst_id else (dst_id, src_id)
        if key in self._cut:
            self.messages_cut += 1
            return None
        rule = self._links.get(key)
        if rule is None:
            return 0.0
        loss, jitter_s = rule
        if loss > 0.0 and self._rng.random() < loss:
            self.messages_lost += 1
            return None
        if jitter_s > 0.0:
            return self._rng.random() * jitter_s
        return 0.0
