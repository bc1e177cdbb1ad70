"""Property: the transport's NIC clock is the port clock it replaced.

``Transport.send`` and ``send_fanout`` advance the sender's
:class:`~repro.net.link.EgressPort` in their own frames.  ``_ReferencePort``
is the port as it was when it owned that arithmetic -- its ``transmit`` /
``transmit_many`` copied as they were -- and ``_Reference`` wraps it in the
rest of a send (fault-plane verdict, dead destination, constant latency,
FIFO clamp).  Random interleavings of single sends (FIFO on and off, a
fault-plane drop or delay, a dead or unregistered destination) and
fan-outs (with and without completion floors, zero destinations, a batch
handed to the NIC after ``now``) through one transport, on an unlimited
and on a finite port, must return the same completions and deliver at the
same instants, bit for bit, and leave ``busy_until``, ``total_bytes`` and
``total_messages`` equal after every step.
"""

from random import Random
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator

#: destinations: two clients (WAN), a server (LAN), a shut-down node and
#: an id nobody registered
DESTINATIONS = ("a", "b", "c", "dead", "gone")
WAN_S = 0.05
LAN_S = 0.001
#: a fault-plane verdict: healthy, lost, or delayed
VERDICTS = (0.0, None, 0.004)


class _ReferencePort:
    """The egress port while it owned the NIC arithmetic."""

    def __init__(self, capacity_bps: Optional[float] = None) -> None:
        self.capacity_bps = capacity_bps
        self._busy_until: float = 0.0
        self.total_bytes: int = 0
        self.total_messages: int = 0

    def transmit(self, now: float, size_bytes: int) -> float:
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if self.capacity_bps is None:
            completion = now
        else:
            start = now if now > self._busy_until else self._busy_until
            completion = start + size_bytes / self.capacity_bps
            self._busy_until = completion
        self.total_bytes += size_bytes
        self.total_messages += 1
        return completion

    def transmit_many(self, now: float, size_bytes: int, count: int) -> List[float]:
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes!r}")
        if count < 0:
            raise ValueError(f"negative message count: {count!r}")
        if count == 0:
            return []
        if self.capacity_bps is None:
            self.total_bytes += size_bytes * count
            self.total_messages += count
            return [now] * count
        per = size_bytes / self.capacity_bps
        c = now if now > self._busy_until else self._busy_until
        completions: List[float] = []
        append = completions.append
        for _ in range(count):
            c += per  # iterative, matching sequential transmit() floats
            append(c)
        self._busy_until = c
        self.total_bytes += size_bytes * count
        self.total_messages += count
        return completions


class _Node(Actor):
    def __init__(
        self, sim: Simulator, node_id: str, arrivals: List[Tuple[str, float, int]], infra: bool
    ) -> None:
        super().__init__(sim, node_id, is_infra=infra)
        self.arrivals = arrivals

    def receive(self, message: int, src_id: str) -> None:
        self.arrivals.append((self.node_id, self.sim.now, message))


class _ScriptedPlane:
    """Answers each destination with the verdict the current step set."""

    def __init__(self) -> None:
        self.nodes = frozenset(("src",) + DESTINATIONS)
        self.verdicts: Dict[str, Optional[float]] = {}

    def apply(self, src_id: str, dst_id: str) -> Optional[float]:
        return self.verdicts[dst_id]


class _Reference:
    """A send as the transport made it on top of ``_ReferencePort``."""

    def __init__(self, capacity: Optional[float]) -> None:
        self.port = _ReferencePort(capacity)
        self.fifo: Dict[str, float] = {}
        self.arrivals: List[Tuple[str, float, int]] = []

    def _arrive(self, dst: str, completion: float, extra: float, fifo: bool, message: int) -> float:
        delivery = completion + (WAN_S if dst in ("a", "b") else LAN_S)
        if extra:
            delivery += extra
        if fifo:
            delivery = max(delivery, self.fifo.get(dst, 0.0))
            self.fifo[dst] = delivery
        self.arrivals.append((dst, delivery, message))
        return delivery

    def send(
        self, now: float, dst: str, size: int, fifo: bool, verdict: Optional[float], message: int
    ) -> Tuple[float, float]:
        completion = self.port.transmit(now, size)
        if verdict is None or dst in ("dead", "gone"):
            return completion, completion
        return completion, self._arrive(dst, completion, verdict, fifo, message)

    def fanout(
        self,
        start: float,
        dsts: List[str],
        size: int,
        floors: Optional[List[float]],
        verdicts: List[Optional[float]],
        message: int,
    ) -> List[float]:
        completions = self.port.transmit_many(start, size, len(dsts))
        if floors is not None:
            completions = [max(c, f) for c, f in zip(completions, floors)]
        for dst, completion, verdict in zip(dsts, completions, verdicts):
            if verdict is not None and dst not in ("dead", "gone"):
                self._arrive(dst, completion, verdict, True, message)
        return completions


_sizes = st.integers(min_value=0, max_value=5_000)
_advance = st.sampled_from((0.0, 0.0001, 0.01, 0.5, 3.0))
#: one verdict per destination, in ``DESTINATIONS`` order
_verdicts = st.lists(
    st.sampled_from(VERDICTS), min_size=len(DESTINATIONS), max_size=len(DESTINATIONS)
)
#: (kind, destination, size, fifo, plane installed, verdicts, advance after)
_send = st.tuples(
    st.just("send"),
    st.sampled_from(DESTINATIONS),
    _sizes,
    st.booleans(),
    st.booleans(),
    _verdicts,
    _advance,
)
#: (kind, destinations, size, start - now, floors - start or None, plane
#: installed, verdicts, advance after)
_fanout = st.tuples(
    st.just("fanout"),
    st.lists(st.sampled_from(DESTINATIONS), max_size=len(DESTINATIONS), unique=True),
    _sizes,
    st.sampled_from((0.0, 0.0, 0.02, 1.0)),
    st.one_of(st.none(), st.lists(st.sampled_from((0.0, 0.001, 0.3, 2.0)), min_size=5, max_size=5)),
    st.booleans(),
    _verdicts,
    _advance,
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.floats(min_value=500.0, max_value=1e6)),
    steps=st.lists(st.one_of(_send, _fanout), min_size=1, max_size=25),
)
def test_the_transport_advances_the_nic_clock_as_the_port_did(capacity, steps):
    sim = Simulator()
    net = Transport(sim, Random(3), lan_model=FixedLatency(LAN_S), wan_model=FixedLatency(WAN_S))
    arrivals: List[Tuple[str, float, int]] = []
    net.register(_Node(sim, "src", arrivals, True), egress_capacity_bps=capacity)
    for node_id in DESTINATIONS[:-1]:
        net.register(_Node(sim, node_id, arrivals, node_id == "c"))
    net.actor("dead").shutdown()
    plane = _ScriptedPlane()
    reference = _Reference(capacity)
    port = net.port("src")

    for index, step in enumerate(steps):
        now = sim.now
        if step[0] == "send":
            _, dst, size, fifo, plane_on, verdicts, advance = step
            plane.verdicts = dict(zip(DESTINATIONS, verdicts))
            net.fault_plane = plane if plane_on else None
            verdict = plane.verdicts[dst] if plane_on else 0.0
            got = net.send("src", dst, index, size, fifo=fifo)
            assert got == reference.send(now, dst, size, fifo, verdict, index)
        else:
            _, dsts, size, offset, floors, plane_on, verdicts, advance = step
            plane.verdicts = dict(zip(DESTINATIONS, verdicts))
            net.fault_plane = plane if plane_on else None
            start = now + offset
            floor_times = None if floors is None else [start + f for f in floors[: len(dsts)]]
            states = net.fanout_states("src", dsts)
            got = net.send_fanout(
                "src", dsts, states, index, size, start=start, min_completions=floor_times
            )
            answered = [plane.verdicts[d] if plane_on else 0.0 for d in dsts]
            assert got == reference.fanout(start, dsts, size, floor_times, answered, index)
        assert port.busy_until == reference.port._busy_until
        assert port.total_bytes == reference.port.total_bytes
        assert port.total_messages == reference.port.total_messages
        if advance:
            sim.run_until(now + advance)

    sim.run_until(sim.now + 100.0)
    assert sorted(arrivals) == sorted(reference.arrivals)
