"""Property: the transport's inline draw is the latency model's draw.

Every shipped latency model declares its law as data (``law``, or
``fixed_delay`` for a constant), and ``Transport.send`` / ``send_fanout``
draw it in their own frames instead of calling ``sample``.  The reference
here asks the model itself, on a twin RNG: a single send is delivered at
``completion + model.sample(twin)``, a fan-out draws once per latency
model ("leg") in the order its destinations first reach that leg, and the
per-connection FIFO clamp applies to both.  Random interleavings of single
sends and fan-outs from a server to clients (the model under test, WAN)
and to other servers (the default LAN model) must deliver every message
at exactly the reference's instant, and leave the transport's RNG where
the twin is.
"""

from random import Random
from typing import Dict, List, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import (
    FixedLatency,
    KingLatencyModel,
    LanLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator

#: two clients (WAN legs) and two servers (LAN legs)
DESTINATIONS = ("a", "b", "s1", "s2")
INFRA = {"s1", "s2"}

MODELS = {
    "king": KingLatencyModel,
    "king-narrow": lambda: KingLatencyModel(sigma=0.05),
    # heavy enough that draws land on both clamps
    "king-clamped": lambda: KingLatencyModel(median=0.03, sigma=2.0, floor=0.01, ceiling=0.05),
    "lan": LanLatency,
    "uniform": lambda: UniformLatency(0.01, 0.09),
    "fixed": lambda: FixedLatency(0.04),
}


Arrivals = Dict[Tuple[str, int], float]


class _Node(Actor):
    def __init__(self, sim: Simulator, node_id: str, arrivals: Arrivals) -> None:
        super().__init__(sim, node_id, is_infra=node_id in INFRA or node_id == "src")
        self.arrivals = arrivals

    def receive(self, message: int, src_id: str) -> None:
        self.arrivals[(self.node_id, message)] = self.sim.now


Op = Tuple[str, Union[int, List[int]], float]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, len(DESTINATIONS) - 1), st.just(0.0)),
        st.tuples(
            st.just("fanout"),
            st.lists(st.integers(0, len(DESTINATIONS) - 1), max_size=4, unique=True),
            st.sampled_from([0.0, 0.003, 0.2]),
        ),
    ),
    max_size=30,
)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=60, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 2**32 - 1), capacity=st.sampled_from([None, 4_000.0]))
def test_delivery_times_are_the_models_draws(name: str, ops: List[Op], seed: int, capacity):
    model: LatencyModel = MODELS[name]()
    lan: LatencyModel = LanLatency()
    sim = Simulator()
    rng, twin = Random(seed), Random(seed)
    net = Transport(sim, rng, lan_model=lan, wan_model=model)
    arrivals: Arrivals = {}
    net.register(_Node(sim, "src", arrivals), egress_capacity_bps=capacity)
    for dst in DESTINATIONS:
        net.register(_Node(sim, dst, arrivals))

    expected: Arrivals = {}
    fifo: Dict[str, float] = {}

    def arrive(dst: str, message: int, time: float) -> None:
        time = max(time, fifo.get(dst, 0.0))
        fifo[dst] = time
        expected[(dst, message)] = time

    for message, (kind, picked, start) in enumerate(ops):
        if kind == "send":
            assert isinstance(picked, int)
            dst = DESTINATIONS[picked]
            completion, __ = net.send("src", dst, message, 100)
            arrive(dst, message, completion + (lan if dst in INFRA else model).sample(twin))
        else:
            assert isinstance(picked, list)
            dsts = [DESTINATIONS[i] for i in picked]
            completions = net.send_fanout(
                "src", dsts, net.fanout_states("src", dsts), message, 100, start=start
            )
            legs: Dict[int, float] = {}
            for dst, completion in zip(dsts, completions):
                leg = lan if dst in INFRA else model
                if id(leg) not in legs:
                    legs[id(leg)] = leg.sample(twin)
                arrive(dst, message, completion + legs[id(leg)])
    sim.run()

    assert arrivals == expected
    assert rng.getstate() == twin.getstate()
