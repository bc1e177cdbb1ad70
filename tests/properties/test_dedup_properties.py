"""Property-based tests for client-side exactly-once delivery.

A client drops duplicates on one sliding window per sender over the
sender's publication numbers: the highest number heard and a bitmap of the
``DEDUP_WINDOW`` numbers below it.  ``_LruReference`` is the structure it
replaced, a count-aware LRU of the last ``DEDUP_WINDOW`` message ids; on
every arrival sequence where each duplicate lags its original by fewer
than the window's length, in arrivals and in numbers, the two decide
alike.  ``TestWhereTheyDiffer`` pins the two places they differ on purpose.
"""

import tracemalloc
from collections import deque
from typing import Deque, Dict, List, Tuple

from hypothesis import given
from hypothesis import strategies as st

from repro.broker.commands import Delivery
from repro.core.client import DynamothClient
from repro.core.messages import AppEnvelope
from tests.helpers import make_bare_client

WINDOW = DynamothClient.DEDUP_WINDOW


def make_client():
    sim, wire, client = make_bare_client(servers=["s1", "s2"])
    return sim, client


def envelope(sender: str, number: int) -> AppEnvelope:
    return AppEnvelope(f"{sender}:{number}", sender, number, number, 0, 0.0)


def arrives_as_duplicate(client: DynamothClient, env: AppEnvelope, server: str = "s1") -> bool:
    """Feed one delivery of ``env``; was it suppressed as a duplicate?"""
    delivered, duplicates = client.delivered, client.duplicates
    client.receive(Delivery("ch", env, 16, server), server)
    assert (client.delivered - delivered) + (client.duplicates - duplicates) == 1
    return client.duplicates > duplicates


class _LruReference:
    """The former client dedup: a count-aware LRU of the last ``window``
    message ids.  Every arrival is appended to the recency deque, a
    duplicate included (its recency refresh), and an id is forgotten when
    its last occurrence leaves the deque."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.seen: Dict[str, int] = {}
        self.order: Deque[str] = deque()

    def is_duplicate(self, msg_id: str) -> bool:
        count = self.seen.get(msg_id)
        self.seen[msg_id] = (count or 0) + 1
        self.order.append(msg_id)
        if len(self.order) > self.window:
            oldest = self.order.popleft()
            if self.seen[oldest] == 1:
                del self.seen[oldest]
            else:
                self.seen[oldest] -= 1
        return count is not None


#: one drawn arrival: (sender index, duplicate?, number offset from the
#: sender's highest, which eligible original to copy, forwarded copy?)
_OP = st.tuples(
    st.integers(0, 3),
    st.booleans(),
    st.one_of(
        st.integers(-4, 4),  # in order, a little ahead, or a little late
        st.integers(-WINDOW + 1, -WINDOW + 4),  # first heard at the window's far edge
        st.integers(WINDOW - 4, WINDOW + 4),  # a jump that slides or restarts the window
    ),
    st.integers(0, 1000),
    st.booleans(),
)


def _arrivals(n_senders: int, ops: List[Tuple[int, bool, int, int, bool]]) -> List[AppEnvelope]:
    """Interpret drawn ops as an arrival sequence in which every duplicate
    lags its original by fewer than ``WINDOW`` arrivals and its number sits
    fewer than ``WINDOW`` below its sender's highest."""
    arrivals: List[AppEnvelope] = []
    first_at: Dict[Tuple[str, int], int] = {}
    high = {f"p{i}": 0 for i in range(n_senders)}
    for index, is_dup, offset, pick, forwarded in ops:
        sender = f"p{index % n_senders}"
        if is_dup:
            now = len(arrivals)
            eligible = sorted(
                key for key, at in first_at.items()
                if now - at < WINDOW and high[key[0]] - key[1] < WINDOW
            )
            if not eligible:
                continue
            sender, number = eligible[pick % len(eligible)]
        else:
            number = high[sender] + offset
            if number < 1 or (sender, number) in first_at:
                continue
            first_at[(sender, number)] = len(arrivals)
            high[sender] = max(high[sender], number)
        env = envelope(sender, number)
        arrivals.append(env.as_forwarded() if forwarded else env)
    return arrivals


class TestDedupProperties:
    @given(
        ids=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300)
    )
    def test_each_unique_id_delivered_exactly_once(self, ids):
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for i in ids:
            client.receive(Delivery("ch", envelope("peer", i), 16, "s1"), "s1")
        assert sorted(delivered) == sorted({f"peer:{i}" for i in ids})
        assert client.duplicates == len(ids) - len(set(ids))

    @given(
        n_copies=st.integers(min_value=1, max_value=6),
        n_messages=st.integers(min_value=1, max_value=50),
    )
    def test_replication_fanout_always_collapses(self, n_copies, n_messages):
        """However many replicas forward the same publication, the
        application sees it once."""
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for m in range(1, n_messages + 1):
            env = envelope("peer", m)
            for copy in range(n_copies):
                server = f"s{copy % 2 + 1}"
                client.receive(Delivery("ch", env, 16, server), server)
        assert len(delivered) == n_messages
        assert client.duplicates == n_messages * (n_copies - 1)

    def test_window_remembers_exactly_the_most_recent_ids(self):
        """Memory is bounded: per sender, only its last DEDUP_WINDOW
        publication numbers are held."""
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for n in [*range(1, 21), WINDOW + 19]:
            client.receive(Delivery("ch", envelope("peer", n), 16, "s1"), "s1")
        # 20 is the oldest number still inside the window; 19 just left it.
        for n in (20, 19):
            client.receive(Delivery("ch", envelope("peer", n), 16, "s1"), "s1")
        assert delivered.count("peer:20") == 1
        assert delivered.count("peer:19") == 2
        assert client._windows["peer"][1].bit_length() <= WINDOW

    def test_very_old_id_can_be_redelivered_after_eviction(self):
        """The window is finite: a number DEDUP_WINDOW or more below its
        sender's highest is forgotten.  (In practice the plan-entry timers
        expire far sooner than 8k messages pass from one sender.)"""
        sim, client = make_client()
        delivered = []
        client.subscribe("ch", lambda ch, body, env: delivered.append(env.msg_id))
        for n in range(1, WINDOW + 2):
            client.receive(Delivery("ch", envelope("peer", n), 16, "s1"), "s1")
        client.receive(Delivery("ch", envelope("peer", 1), 16, "s1"), "s1")
        assert delivered.count("peer:1") == 2


class TestAgainstTheLruReference:
    @given(n_senders=st.integers(1, 4), ops=st.lists(_OP, max_size=120))
    def test_window_and_reference_decide_alike(self, n_senders, ops):
        sim, client = make_client()
        reference = _LruReference(WINDOW)
        for env in _arrivals(n_senders, ops):
            assert arrives_as_duplicate(client, env) == reference.is_duplicate(env.msg_id), env


class TestWhereTheyDiffer:
    def test_replays_never_advance_the_window(self):
        """WINDOW replays of b:1 cycle a:1 out of the reference; a's window
        moves only with a's own new numbers."""
        sim, client = make_client()
        reference = _LruReference(WINDOW)
        for env in (envelope("a", 1), envelope("b", 1)):
            assert not arrives_as_duplicate(client, env)
            assert not reference.is_duplicate(env.msg_id)
        for _ in range(WINDOW):
            assert arrives_as_duplicate(client, envelope("b", 1))
            assert reference.is_duplicate("b:1")
        assert arrives_as_duplicate(client, envelope("a", 1))
        assert not reference.is_duplicate("a:1")

    def test_another_senders_traffic_never_evicts_a_record(self):
        """10 000 deliveries from b leave a's record in place; the
        reference forgets a:1."""
        sim, client = make_client()
        reference = _LruReference(WINDOW)
        for env in [envelope("a", 1), *(envelope("b", n) for n in range(1, 10_001))]:
            assert not arrives_as_duplicate(client, env)
            assert not reference.is_duplicate(env.msg_id)
        assert arrives_as_duplicate(client, envelope("a", 1))
        assert not reference.is_duplicate("a:1")


class TestWindowEdges:
    def test_a_huge_jump_restarts_the_mask_without_a_long_temporary(self):
        sim, client = make_client()
        for n in range(1, WINDOW + 1):  # a full window: an 8 192-bit mask
            arrives_as_duplicate(client, envelope("a", n))
        jumped = envelope("a", WINDOW + 10**7)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert not arrives_as_duplicate(client, jumped)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 4096
        assert client._windows["a"] == [WINDOW + 10**7, 1]

    def test_a_number_older_than_the_window_counts_as_delivered(self):
        sim, client = make_client()
        for n in (1, WINDOW + 1):
            assert not arrives_as_duplicate(client, envelope("a", n))
        for _ in range(2):  # delivered and not recorded, so delivered again
            assert not arrives_as_duplicate(client, envelope("a", 1))
        assert (client.delivered, client.duplicates) == (4, 0)

    def test_a_sender_first_heard_late_still_delivers_earlier_numbers(self):
        sim, client = make_client()
        assert not arrives_as_duplicate(client, envelope("a", 500))
        assert not arrives_as_duplicate(client, envelope("a", 499))
        assert arrives_as_duplicate(client, envelope("a", 499))

    def test_arrivals_after_a_restart_follow_the_usual_rules(self):
        sim, client = make_client()
        for n in (5, 4):
            assert not arrives_as_duplicate(client, envelope("a", n))
        high = 5 + WINDOW  # a jump of the window's length restarts it
        assert not arrives_as_duplicate(client, envelope("a", high))
        assert client._windows["a"] == [high, 1]
        assert arrives_as_duplicate(client, envelope("a", high))  # the repeated high
        assert not arrives_as_duplicate(client, envelope("a", high - 1))  # never heard
        assert arrives_as_duplicate(client, envelope("a", high - 1))
        assert not arrives_as_duplicate(client, envelope("a", 5))  # older than the window
