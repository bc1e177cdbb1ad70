"""Named, independently seeded random streams.

Every source of randomness in the reproduction (WAN latency sampling, player
movement, random replica selection, arrival schedules, ...) draws from its
own named stream derived from a single root seed.  This gives two
properties the experiments depend on:

* **Reproducibility** -- the same root seed yields the same run.
* **Isolation** -- adding a new consumer of randomness does not perturb the
  draws seen by existing consumers, so results stay comparable across code
  versions.
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``root_seed``.

    Uses SHA-256 rather than ``hash()`` because Python's string hashing is
    randomized per-process.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named :class:`random.Random` streams.

    Streams are created lazily and cached, so two calls to
    :meth:`stream` with the same name return the same generator object.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: Dict[str, Random] = {}

    def stream(self, name: str) -> Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams
