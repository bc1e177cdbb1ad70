"""``publish`` picks the route ``_resolve`` would pick.

``publish`` predicts its route where ``_resolve`` decides nothing -- a
subscribed plan entry, or the cached consistent-hashing fallback, with no
server suspected -- and calls ``_resolve`` for the rest.  Each case below
is built twice, identically: one world publishes, the twin asks
``_resolve``.  They must agree on the servers the publication goes to, on
the plan entry left behind, on ``plan_miss_total`` and on the
``PlanMissEvent``s, with and without a tracer.
"""

from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.broker.commands import PublishCmd
from repro.core.client import DynamothClient
from repro.core.config import DynamothConfig
from repro.core.messages import MappingNotice
from repro.core.plan import ChannelMapping, ReplicationMode
from repro.obs.trace import NULL_TRACER, PlanMissEvent, Tracer
from repro.sim.kernel import Simulator
from tests.helpers import RecordingWire, make_bare_client

SERVERS = ("s1", "s2", "s3")
CHANNEL = "ch"
TIMEOUT_S = 5.0
#: a plan entry that is not where the ring would send the channel
ENTRY = ChannelMapping(ReplicationMode.SINGLE, ("s2",), version=4)

Setup = Callable[[Simulator, RecordingWire, DynamothClient], None]


def _notice(sim: Simulator, wire: RecordingWire, client: DynamothClient) -> None:
    client.receive(MappingNotice(CHANNEL, ENTRY), "dispatcher@s1")


def _subscribed_entry(sim, wire, client):
    client.subscribe(CHANNEL)
    _notice(sim, wire, client)
    sim.run_until(sim.now + TIMEOUT_S + 1.0)  # past the timeout: a subscription keeps it


def _fresh_entry(sim, wire, client):
    _notice(sim, wire, client)
    sim.run_until(sim.now + TIMEOUT_S / 2)


def _expired_entry(sim, wire, client):
    _notice(sim, wire, client)
    sim.run_until(sim.now + TIMEOUT_S + 1.0)


def _cached_fallback(sim, wire, client):
    client.publish(CHANNEL, "first", 10)


def _first_miss(sim, wire, client):
    pass


def _suspected_server(sim, wire, client):
    """The channel's ring home stops answering pings: the client suspects it."""
    home = client._ring.lookup(CHANNEL)
    wire.live = set(SERVERS) - {home}
    client.subscribe(CHANNEL)
    recovery = client._recovery
    while home not in recovery.failed:
        assert sim.now < 30.0, "the silent server was never suspected"
        sim.run_until(sim.now + 0.1)


CASES: Dict[str, Tuple[Setup, bool]] = {
    # name: (setup, predicted by ``publish``)
    "subscribed entry": (_subscribed_entry, True),
    "unsubscribed fresh entry": (_fresh_entry, False),
    "unsubscribed entry past the timeout": (_expired_entry, False),
    "cached fallback": (_cached_fallback, True),
    "first miss": (_first_miss, False),
    "suspected server": (_suspected_server, False),
}


def _world(setup: Setup, traced: bool) -> Tuple[Simulator, RecordingWire, DynamothClient, Tracer]:
    tracer = Tracer(keep_events=True) if traced else NULL_TRACER
    config = DynamothConfig(plan_entry_timeout_s=TIMEOUT_S, client_ping_interval_s=1.0)
    sim, wire, client = make_bare_client(servers=SERVERS, config=config, tracer=tracer)
    wire.live = set(SERVERS)
    setup(sim, wire, client)
    return sim, wire, client, tracer


def _outcome(
    client: DynamothClient, tracer: Tracer, targets: List[str]
) -> Tuple[List[str], Optional[ChannelMapping], float, List[PlanMissEvent]]:
    misses = [e for e in tracer.events if type(e) is PlanMissEvent] if tracer.enabled else []
    total = tracer.metrics.counter_total("plan_miss_total") if tracer.enabled else 0.0
    return targets, client.known_mapping(CHANNEL), total, misses


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_publish_routes_where_resolve_does(case: str, traced: bool):
    setup, __ = CASES[case]

    sim, wire, client, tracer = _world(setup, traced)
    sent_before = len(wire.sent)
    client.publish(CHANNEL, "x", 10)
    published = [dst for __, dst, m in wire.sent[sent_before:] if isinstance(m, PublishCmd)]

    __, __, twin, twin_tracer = _world(setup, traced)
    resolved = list(twin._resolve(CHANNEL).servers)

    assert published == resolved
    assert _outcome(client, tracer, published) == _outcome(twin, twin_tracer, resolved)


@pytest.mark.parametrize("case", sorted(CASES))
def test_only_the_undecided_cases_skip_resolve(case: str, monkeypatch):
    """The prediction covers exactly the two cases where ``_resolve`` makes
    no decision; the expiry rule, a first miss and a suspicion reach it."""
    setup, predicted = CASES[case]
    __, __, client, __ = _world(setup, traced=False)
    calls = []
    original = DynamothClient._resolve
    monkeypatch.setattr(
        DynamothClient, "_resolve", lambda self, ch: calls.append(ch) or original(self, ch)
    )
    client.publish(CHANNEL, "x", 10)
    assert calls == ([] if predicted else [CHANNEL])
