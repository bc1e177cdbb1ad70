"""Message transport between actors.

:class:`Transport` is the glue between the actor layer and the network
model.  Sending a message involves, in order:

1. queuing on the sender's NIC (transmission delay = backlog +
   size/capacity).  The transport owns that arithmetic and runs it in its
   own send frames; the :class:`~repro.net.link.EgressPort` is its state
   -- a FIFO queue clock and two totals the LLAs read;
2. one-way propagation delay drawn from the LAN model (both endpoints are
   infrastructure) or the WAN model (one endpoint is a client), mirroring
   the paper's latency-injection rules in section V-B.  A model declares
   its law as data (:class:`~repro.net.latency.LatencyModel`), and the
   transport draws it in its own send frames, on the same RNG draws and
   float expressions as the model's ``sample``; a model that declares no
   law is asked ``sample``;
3. delivery via ``dst.receive(message, src_id)``, straight from the
   kernel's run loop -- unless the destination has shut down or left in
   the meantime: its ``receive`` is :meth:`Transport.dead_letter` by then,
   and the message is dropped and counted.

Hot-path notes: all per-connection state lives in one flat table keyed by
``(src, dst)`` tuples -- the resolved destination actor, which latency
model the pair uses (it never changes while both endpoints stay
registered), the model's constant sample when it declares a
``fixed_delay`` (constant models never touch the RNG), the FIFO clamp,
the ``(dst_actor,)`` tuple every delivery event of the pair shares as its
arguments, and the model's declared ``law``.  One dict lookup per message
covers all six.  There are two send bodies:
:meth:`Transport.send` for one message (control plane, client publishes)
and :meth:`Transport.send_fanout`, the bulk fan-out API: it advances the
NIC clock once per message, float-identical to back-to-back single sends,
draws propagation once per *leg* (latency model) per batch, and
queues all deliveries as one cursor on the kernel's heap (:mod:`repro.sim.kernel`).
"""

from __future__ import annotations

from array import array
from heapq import heappush
from itertools import islice
from math import exp, log
from operator import le, methodcaller
from random import Random
from typing import Any, Container, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.net.latency import (
    AFFINE_UNIFORM,
    CLAMPED_LOGNORMAL,
    NV_MAGICCONST,
    KingLatencyModel,
    LanLatency,
    LatencyModel,
)
from repro.net.link import EgressPort
from repro.sim.actor import Actor
from repro.sim.kernel import KERNEL_SCHEDULE_BATCH, Simulator

# Indices into a per-pair state list (a mutable list rather than a small
# object: one allocation per pair for the lifetime of the pair).
_P_DST = 0  # resolved destination Actor
_P_MODEL = 1  # LatencyModel, or None for loopback
_P_FIXED = 2  # constant sample when the model declares one, else None
_P_FIFO = 3  # last scheduled delivery time on this connection
_P_ARGS = 4  # ``(dst_actor,)``: the args of every delivery event of the pair
_P_LAW = 5  # the model's declared ``law``, else None (then ``sample`` is called)


class FaultPlane(Protocol):
    """Per-message verdict hook for injected network faults.

    :meth:`apply` returns extra one-way delay in seconds (0.0 for a healthy
    link), or ``None`` when the message is lost (partitioned link, or a
    sampled loss event).  Implementations must draw randomness only from
    their own RNG stream so installing a plane with no active faults leaves
    the simulation byte-identical.  :attr:`nodes` holds every node a rule
    names; :meth:`apply` is asked only about pairs with both ends in it,
    so it must answer ``0.0`` -- no draw, no count -- for any other pair.
    """

    @property
    def nodes(self) -> Container[str]: ...

    def apply(self, src_id: str, dst_id: str) -> Optional[float]: ...


class Transport:
    """Routes messages between registered actors with realistic delays."""

    def __init__(
        self,
        sim: Simulator,
        rng: Random,
        lan_model: Optional[LatencyModel] = None,
        wan_model: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self._rng = rng
        self.lan_model: LatencyModel = lan_model if lan_model is not None else LanLatency()
        self.wan_model: LatencyModel = wan_model if wan_model is not None else KingLatencyModel()
        self._actors: Dict[str, Actor] = {}
        self._ports: Dict[str, EgressPort] = {}
        #: per (src, dst) connection state: ``[dst_actor, model, fixed_delay,
        #: fifo_time, (dst_actor,), law]``.  The FIFO clamp enforces the ordering
        #: a TCP connection provides -- without it, two messages on the
        #: same logical connection could reorder (each samples its own
        #: propagation delay), breaking protocols that rely on in-order
        #: SUBSCRIBE/UNSUBSCRIBE processing.  Model choice and actor
        #: resolution depend only on registration-time facts, so entries
        #: stay valid until either endpoint unregisters (which prunes
        #: them).
        self._pairs: Dict[Tuple[str, str], List[Any]] = {}
        #: bumped on every :meth:`unregister` -- the only operation that
        #: prunes pair states.  Callers that hold resolved state refs
        #: across calls (the broker's per-channel subscriber arrays)
        #: compare this against the epoch they captured at build time and
        #: rebuild when it moved, so they can never fan out along a
        #: pruned entry.
        self.pair_epoch: int = 0
        self.messages_sent: int = 0
        self.messages_dropped: int = 0
        #: optional network fault plane (installed by
        #: :class:`repro.faults.FaultInjector` while it has rules).
        #: Consulted per message between two of its ``nodes``: may drop it
        #: (partition, loss) or add delay (jitter).  ``None`` -- the default
        #: -- costs one attribute check per send, and the plane draws from
        #: its own RNG stream, so fault-free runs are byte-identical.
        self.fault_plane: Optional["FaultPlane"] = None
        #: where deliveries are pushed, or ``None``: an overridden
        #: ``schedule_batch`` (a subclass, a profiler) is called for each.
        self._heap = sim._heap if type(sim).schedule_batch is KERNEL_SCHEDULE_BATCH else None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, actor: Actor, egress_capacity_bps: Optional[float] = None) -> EgressPort:
        """Attach ``actor`` to the network.

        ``egress_capacity_bps`` is the actual NIC drain rate; ``None`` means
        unlimited (appropriate for client nodes).
        """
        if actor.node_id in self._actors:
            raise ValueError(f"duplicate node id: {actor.node_id}")
        port = EgressPort(egress_capacity_bps)
        self._actors[actor.node_id] = actor
        self._ports[actor.node_id] = port
        actor.transport = self
        if actor.alive:
            vars(actor).pop("receive", None)  # back after unregister(): lift the dead letter
        return port

    def unregister(self, node_id: str) -> None:
        """Detach a node; in-flight messages to it are dropped on arrival.

        A message in flight is bound to the actor object, not the id: a
        new actor registered under the same id before it lands (a crashed
        server restarting) never sees the old incarnation's traffic.

        All per-pair connection state touching the node is pruned so long
        churny runs do not leak an entry per (departed node, peer) pair --
        and so a later re-registration under the same id starts from a
        clean slate instead of inheriting cached routing state.
        """
        actor = self._actors.pop(node_id, None)
        self._ports.pop(node_id, None)
        stale = [key for key in self._pairs if key[0] == node_id or key[1] == node_id]
        for key in stale:
            del self._pairs[key]
        self.pair_epoch += 1
        if actor is not None:
            actor.transport = None
            vars(actor)["receive"] = self.dead_letter

    def dead_letter(self, message: Any, src_id: str) -> None:
        """``receive`` of a dead node: :meth:`Actor.shutdown` and
        :meth:`unregister` install it on the instance, so liveness is decided
        when it changes and a live arrival pays no test for it."""
        self.messages_dropped += 1

    def actor(self, node_id: str) -> Optional[Actor]:
        return self._actors.get(node_id)

    def port(self, node_id: str) -> Optional[EgressPort]:
        return self._ports.get(node_id)

    def pair_state_count(self) -> int:
        """Entries in the per-pair connection table (leak diagnostics)."""
        return len(self._pairs)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src_id: str,
        dst_id: str,
        message: Any,
        size_bytes: int,
        *,
        fifo: bool = True,
    ) -> Tuple[float, float]:
        """Send ``message`` from ``src_id`` to ``dst_id``.

        ``fifo=False`` lets a message overtake the connection's queued
        stream -- used for out-of-band connection teardown (a TCP RST is
        not queued behind the data the peer will never read).

        Returns ``(transmit_completion, delivery_time)`` so callers that
        model higher-level buffers (the pub/sub server's per-connection
        output buffers) can account for queued bytes.
        """
        if src_id not in self._actors:
            raise KeyError(f"unknown sender: {src_id}")
        port = self._ports[src_id]
        sim = self.sim
        now = sim.now
        if not size_bytes >= 0:  # a NaN fails it too, before the port moves
            raise ValueError(f"negative message size: {size_bytes!r}")
        capacity = port.capacity_bps
        if capacity is None:
            completion = now
        else:
            busy = port.busy_until
            completion = (now if now > busy else busy) + size_bytes / capacity
            port.busy_until = completion
        port.total_bytes += size_bytes
        port.total_messages += 1

        plane = self.fault_plane
        extra: Optional[float] = 0.0
        if plane is not None and src_id in plane.nodes and dst_id in plane.nodes:
            extra = plane.apply(src_id, dst_id)
            if extra is None:
                # Lost in the network: the bytes still occupied the NIC.
                self.messages_dropped += 1
                return completion, completion

        key = (src_id, dst_id)
        state = self._pairs.get(key)
        if state is None:
            state = self._classify_pair(key)
        if state is None or not state[_P_DST].alive:
            # Destination already gone: the bytes still occupied the NIC,
            # but nothing arrives.
            self.messages_dropped += 1
            return completion, completion

        fixed = state[_P_FIXED]
        if fixed is not None:
            latency = fixed
        else:
            law = state[_P_LAW]
            if law is None:
                latency = state[_P_MODEL].sample(self._rng)
            elif law[0] == AFFINE_UNIFORM:
                latency = law[1] + self._rng.random() * law[2]
            else:
                # ``KingLatencyModel.sample``'s draw, on the law's parameters.
                __, mu, sigma, floor, ceiling = law
                random = self._rng.random
                while True:
                    u1 = random()
                    u2 = 1.0 - random()
                    z = NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                latency = exp(mu + z * sigma)
                if latency < floor:
                    latency = floor
                elif latency > ceiling:
                    latency = ceiling
        delivery_time = completion + latency + extra
        if fifo:
            if delivery_time < state[_P_FIFO]:
                delivery_time = state[_P_FIFO]  # FIFO: never overtake
            state[_P_FIFO] = delivery_time
        # No caller cancels a message in flight: it rides the kernel as a
        # cursor of one, which keeps the two fresh one-tuples.
        fn = methodcaller("receive", message, src_id)
        heap = self._heap
        if heap is None or not delivery_time >= now:  # a NaN fails it too
            sim.schedule_batch(fn, (delivery_time,), (state[_P_ARGS],))  # overridden, or raises
        else:
            seq = sim._seq
            sim._seq = seq + 1
            heappush(heap, (delivery_time, seq, None, fn, (state[_P_ARGS],), (delivery_time,), 0))
        self.messages_sent += 1
        return completion, delivery_time

    def fanout_states(
        self, src_id: str, dst_ids: Sequence[str]
    ) -> List[Optional[List[Any]]]:
        """Resolve pair states for a fan-out source, one per destination.

        Entries are the live objects from the pair table, so a caller may
        hold them across calls and pass them back through
        :meth:`send_fanout` for as long as :attr:`pair_epoch` stays
        unchanged.  ``None`` entries mean the destination is not currently
        registered; :meth:`send_fanout` re-probes those per call so a later
        registration is picked up.
        """
        pairs = self._pairs
        states: List[Optional[List[Any]]] = []
        for dst_id in dst_ids:
            state = pairs.get((src_id, dst_id))
            if state is None:
                state = self._classify_pair((src_id, dst_id))
            states.append(state)
        return states

    def send_fanout(
        self,
        src_id: str,
        dst_ids: Sequence[str],
        states: Sequence[Optional[List[Any]]],
        message: Any,
        size_bytes: int,
        *,
        start: float,
        min_completions: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Fan one ``message`` out along pre-resolved pair states.

        ``states`` comes from :meth:`fanout_states`; the broker's
        per-channel subscriber arrays cache it across publications, which
        spares the per-destination ``(src, dst)`` key tuple and table
        lookup.  The shared NIC is charged incrementally -- equivalent to
        sending the messages back to back -- and propagation is sampled
        lazily, **once per leg** (latency model) for the whole batch: the
        deliveries of one fan-out instant share the network-weather sample
        instead of paying one RNG draw each.  Per-connection FIFO order
        against earlier and later sends is preserved through the same
        ``(src, dst)`` clamp as :meth:`send`.

        ``start`` is when the batch is handed to the NIC (the broker's CPU
        completion, never before ``sim.now``).  ``min_completions``, when
        given, is a parallel sequence of per-destination completion floors
        (the pub/sub server's per-connection drain ceilings).

        Returns the transmit-completion time per destination, in order.
        Destinations that are dead or lose the message to the fault plane
        are skipped and counted in :attr:`messages_dropped`; their bytes
        still occupied the NIC.
        """
        port = self._ports[src_id]
        if not size_bytes >= 0:  # a NaN fails it too, before the port moves
            raise ValueError(f"negative message size: {size_bytes!r}")
        count = len(dst_ids)
        capacity = port.capacity_bps
        if capacity is None:
            completions = [start] * count
        elif count:
            # Back to back from when the port is free, one addition per
            # message: the floats of ``count`` sequential single sends.
            per = size_bytes / capacity
            busy = port.busy_until
            c = start if start > busy else busy
            completions = []
            append = completions.append
            for _ in range(count):
                c += per
                append(c)
            port.busy_until = c
        else:
            completions = []
        port.total_bytes += size_bytes * count
        port.total_messages += count
        if min_completions is not None:
            for index, floor in enumerate(min_completions):
                if floor > completions[index]:
                    completions[index] = floor
        # The fault plane only when one of its rules names the source; it is
        # then asked only about the destinations it also names.
        plane = self.fault_plane
        if plane is not None and src_id not in plane.nodes:
            plane = None
        pairs = self._pairs
        rng = self._rng
        #: one propagation sample per latency model ("leg") per batch; the
        #: identity compare against the previous destination's model keeps
        #: uniform batches (every subscriber behind the same WAN leg) to
        #: one pointer compare per destination instead of a dict probe.
        leg_samples: Optional[Dict[int, float]] = None
        last_model: Optional[LatencyModel] = None
        last_latency = 0.0
        times = array("d")
        args_seq: List[Tuple[Any, ...]] = []
        add_time = times.append
        add_args = args_seq.append
        dropped = 0
        for dst_id, state, completion in zip(dst_ids, states, completions):
            extra: Optional[float] = 0.0
            if plane is not None and dst_id in plane.nodes:
                extra = plane.apply(src_id, dst_id)
                if extra is None:
                    dropped += 1
                    continue
            if state is None:
                state = pairs.get((src_id, dst_id))
                if state is None:
                    state = self._classify_pair((src_id, dst_id))
                if state is None or not state[_P_DST].alive:
                    dropped += 1
                    continue
            elif not state[_P_DST].alive:
                dropped += 1
                continue
            fixed = state[_P_FIXED]
            if fixed is not None:
                latency = fixed
            else:
                model = state[_P_MODEL]
                if model is last_model:
                    latency = last_latency
                else:
                    if leg_samples is None:
                        leg_samples = {}
                    leg = id(model)
                    cached = leg_samples.get(leg)
                    if cached is None:
                        law = state[_P_LAW]
                        if law is None:
                            cached = model.sample(rng)
                        elif law[0] == AFFINE_UNIFORM:
                            cached = law[1] + rng.random() * law[2]
                        else:
                            # ``KingLatencyModel.sample``'s draw, as in ``send``.
                            __, mu, sigma, floor, ceiling = law
                            random = rng.random
                            while True:
                                u1 = random()
                                u2 = 1.0 - random()
                                z = NV_MAGICCONST * (u1 - 0.5) / u2
                                if z * z / 4.0 <= -log(u2):
                                    break
                            cached = exp(mu + z * sigma)
                            if cached < floor:
                                cached = floor
                            elif cached > ceiling:
                                cached = ceiling
                        leg_samples[leg] = cached
                    latency = cached
                    last_model = model
                    last_latency = cached
            # Float order is (completion + latency) + extra, with no add at
            # all on a healthy pair (x + 0.0 == x).
            delivery_time = completion + latency
            if extra:
                delivery_time += extra
            if delivery_time < state[_P_FIFO]:
                delivery_time = state[_P_FIFO]
            state[_P_FIFO] = delivery_time
            add_time(delivery_time)
            add_args(state[_P_ARGS])
        n = len(times)
        if n:
            # One C callable for the whole batch, no tuple per destination.
            # The batch waits in the kernel as one cursor entry that keeps
            # ``times`` and ``args_seq``, so they are built fresh here and
            # never touched again.  ``times`` is packed doubles: a queued
            # delivery's time costs the kernel 8 bytes, not a list slot and
            # a float object, and ``completions`` is garbage once the
            # broker's buffer loop has copied it.
            fn = methodcaller("receive", message, src_id)
            sim, heap, ordered = self.sim, self._heap, all(map(le, times, islice(times, 1, None)))
            if heap is None or not ordered or not times[0] >= sim.now:
                sim.schedule_batch(fn, times, args_seq)  # overridden, sorts or raises
            else:
                seq = sim._seq
                sim._seq = seq + n
                sim._batched += n - 1
                heappush(heap, (times[0], seq, None, fn, args_seq, times, 0))
            self.messages_sent += n
        if dropped:
            self.messages_dropped += dropped
        return completions

    def _classify_pair(self, key: Tuple[str, str]) -> Optional[List[Any]]:
        """Resolve and cache an endpoint pair's connection state.

        Returns ``None`` -- without caching -- when the destination is not
        currently registered, so a later registration is picked up.
        """
        src_id, dst_id = key
        dst = self._actors.get(dst_id)
        if dst is None:
            return None
        if src_id == dst_id:
            state: List[Any] = [dst, None, 0.0, 0.0, (dst,), None]
        else:
            if self._actors[src_id].is_infra and dst.is_infra:
                model: LatencyModel = self.lan_model
            else:
                # Client <-> infrastructure: one WAN sample per direction,
                # exactly as the paper injects King samples.  (Client <->
                # client direct messages do not occur in Dynamoth's two-hop
                # architecture.)
                model = self.wan_model
            law = getattr(model, "law", None)
            if law is not None and law[0] not in (AFFINE_UNIFORM, CLAMPED_LOGNORMAL):
                raise ValueError(f"unknown latency law: {law[0]!r}")
            state = [dst, model, getattr(model, "fixed_delay", None), 0.0, (dst,), law]
        self._pairs[key] = state
        return state
