"""Opt-in reliable-delivery layer: sequencing, replay cache, gap tracking.

The repro's base semantics are at-most-once with a repair window
(DESIGN.md 6d).  This module upgrades that, per run, to the delivery
tier selected by :attr:`~repro.core.config.DynamothConfig.delivery_tier`:

* ``at_most_once`` -- the layer is entirely inert (no stamping, no cache,
  zero wire-format change);
* ``at_least_once`` -- the owning broker stamps every application
  publication on a channel with a per-``(server, channel, epoch)``
  monotonic sequence number and keeps a bounded per-channel replay cache
  (count + byte budget, deterministic oldest-first eviction).  Clients
  track the per-stream high-water mark plus missing sequence numbers and
  ask for exactly those -- when a hole is found, and again once its own
  request is older than the link's measured retry timeout; on resubscribe
  the resume point rides the SUBSCRIBE command, MigratoryData-style;
* ``exactly_once`` -- at-least-once plus the client's per-sender dedup
  window, and replayed-but-already-seen sequence numbers are dropped
  *before* the dedup bookkeeping so replay can never recycle the window.

Epochs make broker restarts explicit: a restarted server id starts a new
epoch (its boot count, threaded in by the cluster), so a fresh seq=1
stream is never mistaken for a regression and stale resume points are
ignored rather than replayed from the wrong stream.

The optional causal mode (``causal_order=True``, VCube-PS-style per-topic
causal broadcast) adds publisher metadata to every envelope: a per-sender
FIFO counter and a dependency snapshot of the highest publication the
sender had *itself delivered* from every other publisher on the channel.
The client parks deliveries whose dependencies have not arrived and
releases them in causal order, with a park timeout that force-flushes (in
arrival order) so a genuinely lost dependency cannot wedge the channel --
the flush is surfaced as a ``causal_timeout`` trace event and excused by
the causal-order oracle.

Everything here is deterministic: caches evict by insertion order, all
iteration is over ordered structures, and the layer draws from no RNG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.client_link import LinkClock

__all__ = [
    "CacheEntry",
    "ReplaySlice",
    "ChannelReplayCache",
    "BrokerReliability",
    "SequenceStage",
    "ParkTimeout",
    "CausalGate",
]

#: Replay cache budgets per (server, channel): cached messages and cached
#: payload bytes; the oldest entry is evicted past either.
REPLAY_CACHE_MAX_MSGS = 256
REPLAY_CACHE_MAX_BYTES = 262144
#: Gap repair's retry-timeout ceiling, and its timeout until a link's
#: first SUBSCRIBE->ack.
REPLAY_RETRY_COOLDOWN_S = 1.0
#: Causal mode: how long an out-of-order delivery may stay parked before
#: the channel is force-flushed in arrival order.
CAUSAL_PARK_TIMEOUT_S = 2.0


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """One cached publication, replayable by sequence number."""

    seq: int
    payload: object
    payload_size: int
    wire_size: int


@dataclass(frozen=True, slots=True)
class ReplaySlice:
    """The broker's answer to one replay request.

    ``gap_through`` > 0 means sequence numbers ``<= gap_through`` among
    those asked for were already evicted and are unrecoverable.
    """

    entries: Tuple[CacheEntry, ...] = ()
    gap_through: int = 0


class ChannelReplayCache:
    """Bounded FIFO of the newest publications on one channel.

    Eviction is deterministic: strictly oldest-first, applied whenever
    either the count or the byte budget is exceeded.  ``floor`` is the
    highest evicted (or never-cached) sequence number -- everything at or
    below it is gone for good.
    """

    __slots__ = ("entries", "bytes_used", "floor", "next_seq")

    def __init__(self) -> None:
        self.entries: Deque[CacheEntry] = deque()
        self.bytes_used = 0
        #: highest seq no longer replayable (0 = nothing lost yet)
        self.floor = 0
        #: next sequence number to stamp (1-based)
        self.next_seq = 1

    def stamp(self) -> int:
        seq = self.next_seq
        self.next_seq = seq + 1
        return seq

    def add(self, entry: CacheEntry, max_msgs: int, max_bytes: int) -> None:
        entries = self.entries
        entries.append(entry)
        self.bytes_used += entry.wire_size
        while entries and (len(entries) > max_msgs or self.bytes_used > max_bytes):
            evicted = entries.popleft()
            self.bytes_used -= evicted.wire_size
            self.floor = evicted.seq

    def select(self, seqs: Sequence[int]) -> ReplaySlice:
        """The cached entries among ``seqs`` (ascending), plus the evicted
        gap.  By index: every stamped publication is cached, so the entries
        are the contiguous run ``floor + 1 .. next_seq - 1``."""
        entries, floor, next_seq = self.entries, self.floor, self.next_seq
        selected = tuple([entries[seq - floor - 1] for seq in seqs if floor < seq < next_seq])
        return ReplaySlice(selected, floor if seqs and seqs[0] <= floor else 0)


class BrokerReliability:
    """Per-broker sequencing + replay-cache state (one per server boot);
    the cluster builds one only on the reliable tiers."""

    __slots__ = ("epoch", "_caches", "replayed_messages",
                 "replayed_bytes", "unrecoverable_gaps")

    def __init__(self, epoch: int) -> None:
        #: boot count of this server id; restarts bump it so clients can
        #: tell a fresh stream from a sequence regression.
        self.epoch = epoch
        self._caches: Dict[str, ChannelReplayCache] = {}
        # --- counters (metrics / perf ledger) ---
        self.replayed_messages = 0
        self.replayed_bytes = 0
        self.unrecoverable_gaps = 0

    def cache_for(self, channel: str) -> ChannelReplayCache:
        cache = self._caches.get(channel)
        if cache is None:
            cache = ChannelReplayCache()
            self._caches[channel] = cache
        return cache

    def stamp_and_cache(
        self, channel: str, payload: object, payload_size: int, wire_size: int
    ) -> int:
        """Assign the publication's seq and retain it for replay."""
        cache = self.cache_for(channel)
        seq = cache.stamp()
        cache.add(
            CacheEntry(seq, payload, payload_size, wire_size),
            REPLAY_CACHE_MAX_MSGS,
            REPLAY_CACHE_MAX_BYTES,
        )
        return seq

    def replay_slice(
        self, channel: str, epoch: int, seqs: Sequence[int]
    ) -> Optional[ReplaySlice]:
        """The entries to resend for ``seqs`` (a gap request's holes, or
        everything past a resume point), or ``None`` when nothing applies.

        A request against another epoch targets a stream this boot never
        produced: replying would resend the wrong messages, so it is ignored
        (the client's stream resets on the new epoch's first delivery).
        """
        cache = self._caches.get(channel) if epoch == self.epoch else None
        return cache.select(seqs) if cache is not None else None


# ----------------------------------------------------------------------
# Client side: the two optional stages of ``DynamothClient.receive``
# ----------------------------------------------------------------------
#: ``(asked_at, asks)`` of a hole no request has named yet: due at once
_UNASKED = (float("-inf"), 0)


class _Stream:
    """Client-side view of one (server, channel) sequence stream."""

    __slots__ = ("epoch", "max_seq", "missing", "link", "backoff")

    def __init__(self, link: LinkClock) -> None:
        #: hole -> (time of its latest request, requests so far); ascending,
        #: because holes only ever open above the watermark
        self.missing: Dict[int, Tuple[float, int]] = {}
        self.link = link
        #: multiplier on the link's timeout: 0 after an arrival (read as 1),
        #: doubled by each retry-timer firing that no arrival preceded
        self.backoff = 0
        self.reset(-1)

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.max_seq = 0
        self.missing.clear()


class SequenceStage:
    """Sequence/gap stage: per-stream watermarks, holes and resume points.

    Gap repair is selective repeat on one clock: every hole carries the
    time of its own latest request, and the one due-check (:meth:`_due`)
    names the holes never asked for or asked a retry timeout ago.  It runs
    in :meth:`observe` while the stream has holes and from the stream's
    retry timer (:meth:`retry`), which the owning client schedules.  The client builds
    a stage only when the run stamps sequence numbers (a tier other than
    ``at_most_once``).

    The client predicts the common arrival -- ``max_seq + 1`` of a known
    stream, same epoch, no holes -- and settles it on :attr:`streams`
    itself, so :meth:`observe` sees only the exceptions: first contact, a
    new or older epoch, an arrival that opens a hole, one on a stream with
    holes (a fill, or the next number past them), and a replayed duplicate.
    """

    __slots__ = ("_drop_stale", "streams", "_links", "_armed")

    def __init__(self, exactly_once: bool) -> None:
        #: the tier's one per-message question, answered once: exactly_once
        #: drops a replayed duplicate, at_least_once lets it through (the
        #: app may see it again -- that tier's contract)
        self._drop_stale = exactly_once
        #: (server, channel) -> stream state.  Public because
        #: ``DynamothClient.receive`` reads it without a call: it settles
        #: the next number of a hole-free stream in its epoch itself.
        self.streams: Dict[Tuple[str, str], _Stream] = {}
        #: server -> the estimator its streams share
        self._links: Dict[str, LinkClock] = {}
        #: (server, channel) of the retry timers in flight; not on the stream,
        #: so that one dropped and rebuilt inherits its timer
        self._armed: Set[Tuple[str, str]] = set()

    def sample_link(self, server: str, rtt: float) -> None:
        """A once-sent SUBSCRIBE's round trip to its ack times the link before
        any hole does (TCP's SYN/SYN-ACK): it crosses what a gap fill does."""
        self._links.setdefault(server, LinkClock(REPLAY_RETRY_COOLDOWN_S)).sample(rtt)

    def observe(
        self, server: str, channel: str, seq: int, epoch: int, now: float
    ) -> Union[bool, Tuple[int, ...]]:
        """Record one sequenced delivery; decide delivery + gap repair.

        ``False`` drops it, ``True`` delivers it, and a tuple delivers it
        *and* names the sequence numbers to ask the server for now.
        """
        key = (server, channel)
        stream = self.streams.get(key)
        if stream is None:
            links = self._links
            link = links.get(server) or links.setdefault(server, LinkClock(REPLAY_RETRY_COOLDOWN_S))
            stream = self.streams[key] = _Stream(link)
        if epoch != stream.epoch:
            if epoch < stream.epoch:
                # A straggler from an older boot: the live stream's holes
                # and watermark are not its business (dedup's is).
                return True
            # New boot of the server id (or first contact): fresh stream.
            stream.reset(epoch)
            if seq > 1:
                # Joining mid-stream is normal (we subscribed late); only
                # what arrives after our high-water mark is owed to us.
                stream.max_seq = seq
                return True
        stream.backoff = 0
        missing = stream.missing
        if seq > stream.max_seq:
            for hole in range(stream.max_seq + 1, seq):
                missing[hole] = _UNASKED
            stream.max_seq = seq
        else:
            asked = missing.pop(seq, None)
            if asked is None:
                # At or below the high-water mark and not a known hole: a
                # replayed duplicate.
                return not self._drop_stale
            if asked[1] == 1:
                # Karn's rule: a fill after a retry matches neither request.
                stream.link.sample(now - asked[0])
        if missing:
            return self._due(stream, now, stream.link.timeout) or True
        return True

    @staticmethod
    def _due(stream: _Stream, now: float, timeout: float) -> Tuple[int, ...]:
        """The one due-check: the holes whose latest request (if any) is
        ``timeout`` old, ascending, each stamped as asked at ``now``."""
        missing = stream.missing
        due = tuple([seq for seq, asked in missing.items() if asked[0] + timeout <= now])
        for seq in due:
            missing[seq] = (now, missing[seq][1] + 1)
        return due

    def arm(self, server: str, channel: str) -> float:
        """Delay of the retry timer the client must now start; 0.0 = in flight."""
        key = (server, channel)
        if key in self._armed:
            return 0.0
        self._armed.add(key)
        return self.streams[key].link.timeout

    def retry(
        self, server: str, channel: str, now: float, held: bool
    ) -> Tuple[int, Tuple[int, ...], float]:
        """The retry timer fired: ``(epoch, due holes, delay to the next
        firing)``.  A zero delay ends it: the stream was dropped, has no
        holes, or the client no longer holds the server for the channel.
        Each firing that no arrival preceded doubles the timeout, up to the
        ceiling, and any arrival resets it -- per stream, not per hole: a
        third attempt at one hole on a doubled clock parks the channel."""
        stream = self.streams.get((server, channel))
        if stream is None or not stream.missing or not held:
            self._armed.discard((server, channel))
            return 0, (), 0.0
        ceiling, base = REPLAY_RETRY_COOLDOWN_S, stream.link.timeout
        due = self._due(stream, now, min(ceiling, base * (stream.backoff or 1)))
        stream.backoff = stream.backoff * 2 or 1
        # Next firing: when the hole asked longest ago comes due again.
        oldest = min([asked[0] for asked in stream.missing.values()])
        return stream.epoch, due, oldest + min(ceiling, base * stream.backoff) - now

    def forget_through(self, server: str, channel: str, epoch: int, through_seq: int) -> int:
        """Broker said seqs <= through_seq are evicted: stop chasing them.
        Returns how many holes were written off."""
        stream = self.streams.get((server, channel))
        if stream is None or stream.epoch != epoch:
            return 0
        lost = [seq for seq in stream.missing if seq <= through_seq]
        for seq in lost:
            del stream.missing[seq]
        return len(lost)

    def resume_point(self, server: str, channel: str) -> Tuple[int, int]:
        """(resume_after, resume_epoch) for a SUBSCRIBE on this stream."""
        stream = self.streams.get((server, channel))
        if stream is None or stream.epoch < 0:
            return (-1, -1)
        after = min(stream.missing) - 1 if stream.missing else stream.max_seq
        return (after, stream.epoch)

    def drop_channel(self, channel: str) -> None:
        """Clean unsubscribe: the stream position is no longer meaningful."""
        for key in [k for k in self.streams if k[1] == channel]:
            del self.streams[key]


@dataclass(frozen=True, slots=True)
class ParkTimeout:
    """Local message, never on the wire: a causal park timer fired.  The
    gate schedules it into the owning client's ``receive``."""

    channel: str
    token: int


class _ChannelOrder:
    """Causal state of one channel."""

    __slots__ = ("published", "delivered", "parked", "token")

    def __init__(self) -> None:
        self.published = 0  # the owner's FIFO publication counter
        #: sender -> highest pub_seq handed to the application
        self.delivered: Dict[str, int] = {}
        #: deliveries awaiting their dependencies, in arrival order
        self.parked: List[Any] = []
        #: token of the armed park timer; 0 while nothing is parked
        self.token = 0


class CausalGate:
    """Causal gate: holds a delivery until its dependencies were delivered.

    The client builds one only under ``causal_order``.  It owns the whole
    causal state, keyed per channel: the counters that stamp outgoing
    envelopes, the parked deliveries, and the park timer that force-flushes
    a channel whose dependency is lost for good.

    The client predicts the common arrival -- causally ready on a known
    channel with nothing parked -- and advances ``delivered`` itself, so
    :meth:`admit` sees only the exceptions: a channel's first arrival, an
    arrival that is not ready (it parks), and any arrival on a channel with
    deliveries parked (it may release them).
    """

    __slots__ = ("_sim", "_owner", "_receive", "channels", "_tokens")

    def __init__(self, owner: Any) -> None:
        #: the client actor: its ``sim`` runs the park timer, its ``node_id``
        #: stamps publications, its ``receive`` gets the :class:`ParkTimeout`
        self._sim = owner.sim
        self._owner = owner.node_id
        self._receive = owner.receive
        #: channel -> causal state.  Public because ``DynamothClient.receive``
        #: reads a channel's ``parked`` and ``delivered`` without a call: it
        #: delivers a ready arrival on a channel with nothing parked itself.
        self.channels: Dict[str, _ChannelOrder] = {}
        #: tokens are unique per gate, so a timer armed before the channel
        #: drained or was dropped can never flush what parks after it
        self._tokens = 0

    def stamp(self, channel: str) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """(pub_seq, deps) metadata for the owner's next publication."""
        state = self.channels.get(channel) or self.channels.setdefault(channel, _ChannelOrder())
        state.published += 1
        deps = sorted(state.delivered.items())
        own = state.delivered.get(self._owner)
        if own is not None:
            deps.remove((self._owner, own))
        return state.published, tuple(deps)

    def admit(self, delivery: Any) -> Sequence[Any]:
        """One stamped arrival in; the deliveries now due to the app out.

        Empty when the arrival parks; otherwise the arrival, then every
        parked delivery it (transitively) releases.  One loop tests the
        arrival (``index`` -1), then the parked list, rescanned from the
        head after each release; a ready candidate advances the delivered
        vector on the spot, so the caller delivers the batch unconditionally.
        """
        channel = delivery.channel
        state = self.channels.get(channel) or self.channels.setdefault(channel, _ChannelOrder())
        parked, delivered = state.parked, state.delivered
        batch: List[Any] = []
        candidate, index = delivery, -1
        while candidate is not None:
            envelope = candidate.payload
            sender, pub_seq = envelope.sender, envelope.pub_seq
            last = delivered.get(sender, 0)
            # Ready: next in FIFO order from its sender, and every
            # dependency on another sender already delivered.
            ready = pub_seq <= last + 1
            if ready:
                for dep_sender, dep_seq in envelope.deps:
                    if dep_sender != sender and delivered.get(dep_sender, 0) < dep_seq:
                        ready = False
                        break
            if ready:
                if pub_seq > last:
                    delivered[sender] = pub_seq
                if index >= 0:
                    del parked[index]
                batch.append(candidate)
                index = 0  # each release restarts the scan at the head
            elif index < 0:
                parked.append(delivery)
                if len(parked) == 1:
                    self._tokens += 1
                    state.token = self._tokens
                    timeout = ParkTimeout(channel, state.token)
                    self._sim.schedule(CAUSAL_PARK_TIMEOUT_S, self._receive, timeout, self._owner)
                return ()
            else:
                index += 1
            candidate = parked[index] if index < len(parked) else None
        if not parked:
            state.token = 0  # nothing (left) for an armed timer to flush
        return batch

    def expire(self, channel: str, token: int) -> Sequence[Any]:
        """Park timeout: everything parked on ``channel``, in arrival order.
        Empty when ``token`` is stale."""
        state = self.channels.get(channel)
        if state is None or state.token != token:
            return ()
        flushed, state.parked, state.token = state.parked, [], 0
        delivered = state.delivered
        for delivery in flushed:  # a flush counts as delivery, ready or not
            sender, pub_seq = delivery.payload.sender, delivery.payload.pub_seq
            delivered[sender] = max(pub_seq, delivered.get(sender, 0))
        return flushed

    def drop_channel(self, channel: str) -> None:
        """Clean unsubscribe: forget the channel's causal history."""
        self.channels.pop(channel, None)
