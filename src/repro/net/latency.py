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
NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


#: ``law`` kind of a model whose sample is ``offset + rng.random() * span``:
#: the law is ``(AFFINE_UNIFORM, offset, span)``.
AFFINE_UNIFORM = "affine_uniform"
#: ``law`` kind of a log-normal clamped to ``[floor, ceiling]``: the law is
#: ``(CLAMPED_LOGNORMAL, mu, sigma, floor, ceiling)``, the sample the
#: Kinderman-Monahan draw of :meth:`KingLatencyModel.sample`.
CLAMPED_LOGNORMAL = "clamped_lognormal"


class LatencyModel(Protocol):
    """Anything that can sample a one-way delay in seconds.

    A model may declare what it samples as data, so the transport draws it
    in its own send frames instead of calling :meth:`sample` per message:

    * ``fixed_delay`` -- the constant every sample returns; the transport
      then skips the RNG for pairs using it;
    * ``law`` -- ``(AFFINE_UNIFORM, offset, span)`` or ``(CLAMPED_LOGNORMAL,
      mu, sigma, floor, ceiling)``; the transport makes the same RNG draws,
      in the same order, through the same float expressions as the
      shipped models' :meth:`sample`.

    Leave either unset -- or set it to ``None`` -- when it does not apply:
    a model that declares neither is asked :meth:`sample` for every draw.
    Both are read once per connection, when the transport first resolves
    the pair, so a model's parameters must not change after it is handed
    to a transport.
    """

    def sample(self, rng: Random) -> float:
        """Return a one-way propagation delay in seconds."""
        ...


def _check(name: str, value: float, low: float = 0.0, *, strict: bool = False) -> None:
    """Raise unless ``value`` is finite and at least (above, if ``strict``) ``low``."""
    if not math.isfinite(value) or value < low or (strict and value == low):
        bound = "above" if strict else "at least"
        raise ValueError(f"{name} must be finite and {bound} {low!r}: {value!r}")


class FixedLatency:
    """A constant one-way delay.  Useful in unit tests."""

    def __init__(self, delay: float) -> None:
        _check("delay", delay)
        self.delay = delay
        self.fixed_delay = delay
        self.law = None

    def sample(self, rng: Random) -> float:
        return self.delay


class UniformLatency:
    """Uniformly distributed one-way delay in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        _check("low", low)
        _check("high", high, low)
        self.low = low
        self.high = high
        self.fixed_delay = low if low == high else None
        # ``rng.uniform(low, high)`` is ``low + (high - low) * rng.random()``.
        self.law = (AFFINE_UNIFORM, low, high - low)

    def sample(self, rng: Random) -> float:
        return rng.uniform(self.low, self.high)


class LanLatency:
    """Intra-cloud LAN delay: a small base with mild jitter.

    Defaults give ~0.3-0.7 ms one-way, typical of machines in one LAN /
    availability zone.
    """

    def __init__(self, base: float = 0.0003, jitter: float = 0.0004) -> None:
        _check("base", base)
        _check("jitter", jitter)
        self.base = base
        self.jitter = jitter
        self.fixed_delay = base if jitter == 0 else None
        self.law = (AFFINE_UNIFORM, base, jitter)

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
        _check("median", median, strict=True)
        _check("sigma", sigma, strict=True)
        _check("floor", floor)
        _check("ceiling", ceiling, floor, strict=True)
        self.median = median
        self.sigma = sigma
        self.floor = floor
        self.ceiling = ceiling
        self._mu = math.log(median)
        self.law = (CLAMPED_LOGNORMAL, self._mu, sigma, floor, ceiling)

    def sample(self, rng: Random) -> float:
        # What ``rng.lognormvariate(mu, sigma)`` does, minus its frame and
        # ``normalvariate``'s: the Kinderman-Monahan ratio-of-uniforms loop
        # on the same draws, through the same float expressions.
        # ``Transport.send`` and ``send_fanout`` copy the lines from here to
        # the clamp, reading ``law`` for the attributes.
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
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
