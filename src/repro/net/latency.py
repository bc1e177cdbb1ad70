"""One-way network latency models.

The paper injects WAN delays by sampling the King dataset [14] (millions of
measured DNS-server-to-DNS-server RTTs), filtered to North America.  We do
not have the dataset, so :class:`KingLatencyModel` is a synthetic equivalent:
a log-normal one-way delay whose median and spread are fit to the published
King North-America statistics (median RTT around 65 ms with a long right
tail).  Only the *distribution shape* matters to the experiments -- delays
are added on the client<->cloud path after all queuing, so any sampler with
the same median/tail exercises the identical code path.
"""

from __future__ import annotations

import math
from random import Random
from typing import Protocol


#: ``random.NV_MAGICCONST``, defined as the stdlib defines it (the same float).
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


class LatencyModel(Protocol):
    """Anything that can sample a one-way delay in seconds.

    A model whose samples are constant may additionally expose a
    ``fixed_delay`` attribute holding that constant; the transport then
    skips per-message sampling (and the RNG) for pairs using it.  Leave it
    unset -- or set it to ``None`` -- for stochastic models.
    """

    def sample(self, rng: Random) -> float:
        """Return a one-way propagation delay in seconds."""
        ...


class FixedLatency:
    """A constant one-way delay.  Useful in unit tests."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative latency: {delay!r}")
        self.delay = delay
        self.fixed_delay = delay

    def sample(self, rng: Random) -> float:
        return self.delay


class UniformLatency:
    """Uniformly distributed one-way delay in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid latency range: [{low!r}, {high!r}]")
        self.low = low
        self.high = high
        self.fixed_delay = low if low == high else None

    def sample(self, rng: Random) -> float:
        return rng.uniform(self.low, self.high)


class LanLatency:
    """Intra-cloud LAN delay: a small base with mild jitter.

    Defaults give ~0.3-0.7 ms one-way, typical of machines in one LAN /
    availability zone.
    """

    def __init__(self, base: float = 0.0003, jitter: float = 0.0004) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("LAN latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter
        self.fixed_delay = base if jitter == 0 else None

    def sample(self, rng: Random) -> float:
        return self.base + rng.random() * self.jitter


class KingLatencyModel:
    """Synthetic King-dataset stand-in: log-normal one-way WAN delay.

    Parameters are expressed in intuitive units:

    ``median``
        Median one-way delay in seconds.  The King North-America subset has
        a median RTT of roughly 65 ms, i.e. ~32.5 ms one-way.
    ``sigma``
        Shape parameter of the underlying normal; 0.55 yields a tail where
        ~5% of samples exceed about 2.5x the median, matching the heavy
        tail reported for King.
    ``floor`` / ``ceiling``
        Hard clamps.  The ceiling models the paper's practical cutoff --
        grossly delayed packets would be retransmitted / ignored by a game.
    """

    def __init__(
        self,
        median: float = 0.0325,
        sigma: float = 0.55,
        floor: float = 0.002,
        ceiling: float = 0.400,
    ) -> None:
        if median <= 0:
            raise ValueError(f"median must be positive: {median!r}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive: {sigma!r}")
        if floor < 0 or ceiling <= floor:
            raise ValueError(f"invalid clamp range: [{floor!r}, {ceiling!r}]")
        self.median = median
        self.sigma = sigma
        self.floor = floor
        self.ceiling = ceiling
        self._mu = math.log(median)

    # repro: scope[hot]
    def sample(self, rng: Random) -> float:
        # What ``rng.lognormvariate(mu, sigma)`` does, minus its frame and
        # ``normalvariate``'s: the Kinderman-Monahan ratio-of-uniforms loop
        # on the same draws, through the same float expressions.
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
        value = math.exp(self._mu + z * self.sigma)
        if value < self.floor:
            return self.floor
        if value > self.ceiling:
            return self.ceiling
        return value

    def mean(self) -> float:
        """Analytic mean of the *unclamped* distribution (diagnostic)."""
        return math.exp(self._mu + self.sigma**2 / 2.0)
