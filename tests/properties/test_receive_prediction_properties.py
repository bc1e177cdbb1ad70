"""Property: the client's predicted in-order delivery is the general path.

``DynamothClient.receive`` settles an arrival that is the next number of
a hole-free stream in its epoch, and causally ready on a channel with
nothing parked, without calling ``SequenceStage.observe`` or
``CausalGate.admit``.  ``_Reference`` is the chain with no prediction:
every arrival goes ``observe`` -> dedup -> ``admit``.  On random arrival
schedules -- in-order runs, holes, replayed fills and duplicates, an
older-epoch straggler after a broker restart, a new epoch, and causal
dependencies that arrive after their dependants -- an ``exactly_once`` +
causal client and an ``at_least_once`` client deliver the same messages
in the same order at the same times as the reference, ask for the same
holes, count the same duplicates, write off the same evicted holes,
flush the same parked deliveries, and end with the same stream and gate
state.
"""

from typing import Callable, Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.commands import Delivery, ReplayGapNotice, ReplayRequest
from repro.core.config import DynamothConfig
from repro.core.messages import AppEnvelope
from repro.core.reliability import CausalGate, ParkTimeout, SequenceStage
from repro.obs.trace import DeliveryEvent, Tracer
from repro.sim.kernel import Simulator
from tests.helpers import make_bare_client

SERVERS = ("s1", "s2")
CHANNELS = ("ch0", "ch1")
SENDERS = ("a", "b", "c")


class _Reference:
    """The delivery chain with no prediction: every sequenced arrival is
    observed, deduplicated on a set of ``(sender, number)`` (the window,
    for numbers this small), and admitted through the gate."""

    def __init__(self, config: DynamothConfig, held: Callable[[str, str], bool]) -> None:
        self.sim = Simulator()
        self.node_id = "me"
        self.held = held
        self.sequence = SequenceStage(config.delivery_tier == "exactly_once")
        self.gate = CausalGate(self) if config.causal_order else None
        self.seen: Set[Tuple[str, int]] = set()
        self.delivered: List[Tuple[float, str]] = []
        self.requests: List[Tuple[str, ReplayRequest]] = []
        self.duplicates = self.unrecoverable = self.causal_timeouts = 0

    def deliver(self, batch) -> None:
        self.delivered += [(self.sim.now, delivery.payload.msg_id) for delivery in batch]

    def receive(self, message: object, src_id: str) -> None:
        if isinstance(message, ParkTimeout):
            assert self.gate is not None
            flushed = self.gate.expire(message.channel, message.token)
            self.causal_timeouts += bool(flushed)
            self.deliver(flushed)
            return
        if isinstance(message, ReplayGapNotice):
            self.unrecoverable += self.sequence.forget_through(
                message.server_id, message.channel, message.epoch, message.through_seq
            )
            return
        assert isinstance(message, Delivery)
        server, channel, envelope = message.server_id, message.channel, message.payload
        verdict = self.sequence.observe(server, channel, message.seq, message.epoch, self.sim.now)
        if verdict is False:
            self.duplicates += 1
            return
        if verdict is not True:
            self.requests.append((server, ReplayRequest(channel, message.epoch, verdict)))
            delay = self.sequence.arm(server, channel)
            if delay:
                self.sim.schedule(delay, self.retry, server, channel)
        identity = (envelope.sender, envelope.number)
        if identity in self.seen:
            self.duplicates += 1
            return
        self.seen.add(identity)
        batch = [message]
        if self.gate is not None and envelope.pub_seq > 0:
            batch = list(self.gate.admit(message))
        self.deliver(batch)

    def retry(self, server: str, channel: str) -> None:
        epoch, seqs, delay = self.sequence.retry(
            server, channel, self.sim.now, self.held(server, channel)
        )
        if seqs:
            self.requests.append((server, ReplayRequest(channel, epoch, seqs)))
        if delay:
            self.sim.schedule(delay, self.retry, server, channel)


class _World:
    """Publishers and brokers: stamps each publication with its sender's
    number and per-channel ``pub_seq``, dependencies on what the other
    senders published (``lag`` behind), and its broker's seq and epoch."""

    def __init__(self) -> None:
        self.numbers: Dict[str, int] = {}
        self.pub_seqs: Dict[Tuple[str, str], int] = {}
        self.epochs = {server: 1 for server in SERVERS}
        self.seqs: Dict[Tuple[str, str], int] = {}
        self.published: List[Delivery] = []

    def publish(self, sender: str, channel: str, lag: int) -> Delivery:
        number = self.numbers[sender] = self.numbers.get(sender, 0) + 1
        pub_seq = self.pub_seqs[sender, channel] = self.pub_seqs.get((sender, channel), 0) + 1
        deps = tuple(
            (other, self.pub_seqs[other, channel] - lag)
            for other in SENDERS
            if other != sender and self.pub_seqs.get((other, channel), 0) > lag
        )
        envelope = AppEnvelope(
            f"{sender}:{number}", sender, number, None, 0, 0.0, False, pub_seq, deps
        )
        server = SERVERS[(SENDERS.index(sender) + CHANNELS.index(channel)) % len(SERVERS)]
        seq = self.seqs[server, channel] = self.seqs.get((server, channel), 0) + 1
        delivery = Delivery(channel, envelope, 16, server, seq, self.epochs[server])
        self.published.append(delivery)
        return delivery

    def restart(self, server: str) -> None:
        """A new boot of ``server``: a new epoch, every stream from seq 1."""
        self.epochs[server] += 1
        for key in [key for key in self.seqs if key[0] == server]:
            del self.seqs[key]


#: one drawn step: its kind, weighted towards publications, and every
#: parameter a kind may read.  A publication's fate: delivered now, held
#: back (``release`` delivers it late), lost, or delivered twice; ``replay``
#: re-sends any publication so far as a replayed copy (a fill or a
#: duplicate); ``evict`` is a broker's notice that a stream's oldest
#: numbers are gone; ``restart`` reboots a broker into a new epoch.
_OP = st.tuples(
    st.sampled_from(["pub"] * 8 + ["release", "replay", "replay", "evict", "restart", "tick"]),
    st.sampled_from(SENDERS),
    st.sampled_from(CHANNELS),
    st.sampled_from(["deliver"] * 6 + ["hold", "lose", "twice"]),
    st.integers(0, 2),  # dependency lag
    st.integers(0, 500),  # which held or published delivery; how many evicted
    st.sampled_from(SERVERS),
    st.sampled_from([0.05, 0.3, 1.0, 2.5]),  # tick length, past the park timeout at most
)
_OPS = st.lists(_OP, min_size=10, max_size=150)


def _stream_state(stage: SequenceStage) -> dict:
    return {
        key: (stream.epoch, stream.max_seq, dict(stream.missing), stream.backoff)
        for key, stream in stage.streams.items()
    }


def _gate_state(gate: CausalGate) -> dict:
    return {
        channel: (dict(state.delivered), [d.payload.msg_id for d in state.parked], state.token)
        for channel, state in gate.channels.items()
    }


def _check_against_reference(tier: str, causal: bool, ops) -> None:
    config = DynamothConfig(delivery_tier=tier, causal_order=causal)
    tracer = Tracer()
    sim, wire, client = make_bare_client("me", servers=SERVERS, config=config, tracer=tracer)
    for channel in CHANNELS:
        client.subscribe(channel, lambda channel, body, envelope: None)
    holders = {channel: client.subscription_servers(channel) for channel in CHANNELS}
    reference = _Reference(config, lambda server, channel: server in holders[channel])
    world = _World()
    held: List[Delivery] = []

    def arrive(message) -> None:
        client.receive(message, message.server_id)
        reference.receive(message, message.server_id)

    for kind, sender, channel, fate, lag, index, server, tick in ops:
        if kind == "pub":
            delivery = world.publish(sender, channel, lag)
            if fate == "hold":
                held.append(delivery)
            elif fate != "lose":
                arrive(delivery)
                if fate == "twice":
                    arrive(delivery)
        elif kind == "release" and held:
            arrive(held.pop(index % len(held)))
        elif kind == "replay" and world.published:
            original = world.published[index % len(world.published)]
            arrive(Delivery(
                original.channel, original.payload, original.payload_size, original.server_id,
                original.seq, original.epoch, True,
            ))
        elif kind == "evict":
            through = index % (world.seqs.get((server, channel), 0) + 1)
            arrive(ReplayGapNotice(server, channel, world.epochs[server], through))
        elif kind == "restart":
            world.restart(server)
        elif kind == "tick":
            sim.run_until(sim.now + tick)
            reference.sim.run_until(reference.sim.now + tick)

    delivered = [
        (event.t, event.msg_id) for event in tracer.events if isinstance(event, DeliveryEvent)
    ]
    assert delivered == reference.delivered
    assert client.delivered == len(reference.delivered)
    assert client.duplicates == reference.duplicates
    assert client.unrecoverable == reference.unrecoverable
    assert client.causal_timeouts == reference.causal_timeouts
    requests = [(dst, sent) for _, dst, sent in wire.sent if isinstance(sent, ReplayRequest)]
    assert requests == reference.requests
    assert client.gap_requests == len(reference.requests)
    assert _stream_state(client._sequence) == _stream_state(reference.sequence)
    if causal:
        assert _gate_state(client._gate) == _gate_state(reference.gate)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_exactly_once_causal_prediction_matches_the_general_path(ops):
    _check_against_reference("exactly_once", True, ops)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_at_least_once_prediction_matches_the_general_path(ops):
    _check_against_reference("at_least_once", False, ops)
