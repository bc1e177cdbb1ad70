"""Property: the transport's own cursor push is ``schedule_batch``.

``Transport.send`` and ``send_fanout`` push their delivery cursor onto the
kernel's heap themselves (a fan-out whose times are out of order still
goes through ``Simulator.schedule_batch``, which sorts).  The reference
world routes every message through ``schedule_batch`` instead: the same
``receive`` callable, the same ``(actor,)`` arguments, at the delivery
times the transport's NIC clock, fixed latency and FIFO clamp give.  Random
interleavings of single sends (FIFO on and off), fan-outs (in order, and
out of order through LAN/WAN mixes and completion floors), cancellable
timers and cancels -- frequent enough to compact the queue mid-run -- must
fire in the same order at the same instants in both worlds and leave the
same ``pending_count`` and compaction count after every step.
"""

from operator import methodcaller
from random import Random
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import FixedLatency
from repro.net.transport import Transport
from repro.sim.actor import Actor
from repro.sim.kernel import ScheduledEvent, Simulator

#: two clients (WAN) and a server (LAN)
DESTINATIONS = ("a", "b", "c")
WAN_S = 0.05
LAN_S = 0.001
#: compaction threshold for both worlds: low, so cancels compact often
COMPACT_AT = 4

Log = List[Tuple[object, ...]]


class _Node(Actor):
    def __init__(self, sim: Simulator, node_id: str, log: Log, infra: bool) -> None:
        super().__init__(sim, node_id, is_infra=infra)
        self.log = log

    def receive(self, message: int, src_id: str) -> None:
        self.log.append(("deliver", self.node_id, self.sim.now, message, src_id))


class _World:
    def __init__(self) -> None:
        self.sim = Simulator()
        self.sim.COMPACT_MIN_CANCELLED = COMPACT_AT
        self.log: Log = []
        self.timers: List[ScheduledEvent] = []

    def timer(self, delay: float, tag: int) -> None:
        self.timers.append(self.sim.schedule(delay, self.log.append, ("timer", tag)))

    def cancel(self, pick: int) -> None:
        if self.timers:
            self.timers[pick % len(self.timers)].cancel()

    def state(self) -> Tuple[int, int, int]:
        return self.sim.pending_count, self.sim.compactions, len(self.log)


class _Reference(_World):
    """Every delivery through ``schedule_batch``, times derived here."""

    def __init__(self) -> None:
        super().__init__()
        self.nodes = {
            node_id: _Node(self.sim, node_id, self.log, node_id == "c")
            for node_id in DESTINATIONS
        }
        self.fifo: Dict[str, float] = {}

    def _time(self, dst: str, completion: float, fifo: bool) -> float:
        time = completion + (LAN_S if dst == "c" else WAN_S)
        if fifo:
            time = max(time, self.fifo.get(dst, 0.0))
            self.fifo[dst] = time
        return time

    def send(self, dst: str, message: int, completion: float, fifo: bool) -> float:
        time = self._time(dst, completion, fifo)
        self.sim.schedule_batch(
            methodcaller("receive", message, "src"), [time], [(self.nodes[dst],)]
        )
        return time

    def fanout(self, dsts: List[str], message: int, completions: List[float]) -> None:
        times = [self._time(dst, c, True) for dst, c in zip(dsts, completions)]
        args = [(self.nodes[dst],) for dst in dsts]
        self.sim.schedule_batch(methodcaller("receive", message, "src"), times, args)


_advance = st.sampled_from((0.0, 0.0, 0.0005, 0.01, 0.2))
_send = st.tuples(
    st.just("send"), st.sampled_from(DESTINATIONS), st.integers(0, 2_000), st.booleans(), _advance
)
#: (kind, destinations, size, completion floors after start or None, advance)
_fanout = st.tuples(
    st.just("fanout"),
    st.lists(st.sampled_from(DESTINATIONS), min_size=1, max_size=3, unique=True),
    st.integers(0, 2_000),
    st.one_of(st.none(), st.lists(st.sampled_from((0.0, 0.03, 0.2)), min_size=3, max_size=3)),
    _advance,
)
_timer = st.tuples(st.just("timer"), st.sampled_from((0.0, 0.001, 0.05, 0.3, 5.0)), _advance)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 1_000), _advance)


def _replay(capacity: Optional[float], steps: list) -> Tuple[_World, _Reference]:
    head = _World()
    net = Transport(
        head.sim, Random(0), lan_model=FixedLatency(LAN_S), wan_model=FixedLatency(WAN_S)
    )
    net.register(_Node(head.sim, "src", head.log, True), egress_capacity_bps=capacity)
    for node_id in DESTINATIONS:
        net.register(_Node(head.sim, node_id, head.log, node_id == "c"))
    reference = _Reference()

    for index, step in enumerate(steps):
        kind, advance = step[0], step[-1]
        now = head.sim.now
        assert reference.sim.now == now
        if kind == "send":
            _, dst, size, fifo, _ = step
            completion, time = net.send("src", dst, index, size, fifo=fifo)
            assert time == reference.send(dst, index, completion, fifo)
        elif kind == "fanout":
            _, dsts, size, floors, _ = step
            floor_times = None if floors is None else [now + f for f in floors[: len(dsts)]]
            completions = net.send_fanout(
                "src", dsts, net.fanout_states("src", dsts), index, size,
                start=now, min_completions=floor_times,
            )
            reference.fanout(dsts, index, completions)
        elif kind == "timer":
            head.timer(step[1], index)
            reference.timer(step[1], index)
        else:
            head.cancel(step[1])
            reference.cancel(step[1])
        assert head.state() == reference.state()
        if advance:
            head.sim.run_until(now + advance)
            reference.sim.run_until(now + advance)
            assert head.log == reference.log
            assert head.state() == reference.state()

    head.sim.run()
    reference.sim.run()
    assert head.log == reference.log
    assert head.state() == reference.state()
    assert head.sim._seq == reference.sim._seq
    return head, reference


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.floats(min_value=2_000.0, max_value=1e6)),
    steps=st.lists(
        st.one_of(_send, _fanout, _timer, _cancel, _cancel), min_size=1, max_size=40
    ),
)
def test_the_transports_cursor_orders_as_schedule_batch_does(capacity, steps):
    _replay(capacity, steps)


def test_both_push_paths_and_a_compaction_are_exercised():
    """One hand-built run that takes every branch the property relies on."""
    steps = [("timer", 5.0, 0.0) for _ in range(6)]
    steps += [
        ("fanout", ["c", "a"], 100, None, 0.0),  # in order: the transport's own push
        ("fanout", ["a", "c"], 100, None, 0.0),  # WAN before LAN: sorted by the kernel
        ("send", "b", 100, True, 0.0),
    ]
    steps += [("cancel", pick, 0.0) for pick in range(6)]
    steps.append(("send", "c", 100, False, 0.02))
    head, _ = _replay(None, steps)
    assert head.sim.compactions >= 1
    assert [entry[2] for entry in head.log[:2]] == [0.001, 0.001]
    assert len([entry for entry in head.log if entry[0] == "deliver"]) == 6
