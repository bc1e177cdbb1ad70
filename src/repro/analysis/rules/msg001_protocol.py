"""MSG001: actor dispatch must cover the declared message protocol."""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.analysis.rules.base import Finding, Rule, RuleContext

#: Message routing: wire type -> actor classes that must dispatch it.
PROTOCOL: Dict[str, Tuple[str, ...]] = {
    "PublishCmd": ("PubSubServer",),
    "SubscribeCmd": ("PubSubServer",),
    "UnsubscribeCmd": ("PubSubServer",),
    "ReplayRequest": ("PubSubServer",),
    "PingCmd": ("PubSubServer",),
    "Delivery": ("DynamothClient",),
    "MappingNotice": ("DynamothClient",),
    "FailureNotice": ("DynamothClient",),
    "SubscribeAck": ("DynamothClient",),
    "PongReply": ("DynamothClient",),
    "ReplayGapNotice": ("DynamothClient",),
    "ConnectionClosed": ("DynamothClient",),
    "ParkTimeout": ("DynamothClient",),
    "PlanPush": ("Dispatcher",),
    "NoMoreSubscribers": ("Dispatcher", "LoadBalancer"),
    "LoadReport": ("LoadBalancer",),
    "ServerSpawned": ("LoadBalancer",),
}

#: Wire dataclasses deliberately outside actor routing: envelopes and
#: payloads carried *inside* routed messages, plus reliability-internal
#: records that never cross an actor boundary on their own.
UNROUTED: FrozenSet[str] = frozenset(
    {
        "AppEnvelope",
        "SwitchNotice",
        "ChannelMetricsSnapshot",
        "ReliabilityConfig",
        "CacheEntry",
        "ReplaySlice",
    }
)


def dispatch_map(fn: ast.FunctionDef) -> List[Tuple[str, int]]:
    """``isinstance`` branches of an actor ``receive`` method.

    Only tests against the *message parameter* (the first argument after
    ``self``) count -- ``isinstance`` checks on payloads or locals are
    not dispatch.  Tuple second arguments contribute every named class.
    """
    params = [a.arg for a in fn.args.args if a.arg != "self"]
    if not params:
        return []
    message = params[0]
    out: List[Tuple[str, int]] = []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "isinstance" or len(node.args) != 2:
            continue
        subject, types = node.args
        if not (isinstance(subject, ast.Name) and subject.id == message):
            continue
        if isinstance(types, ast.Name):
            out.append((types.id, node.lineno))
        elif isinstance(types, ast.Tuple):
            for element in types.elts:
                if isinstance(element, ast.Name):
                    out.append((element.id, node.lineno))
    return out


def actors(tree: ast.Module) -> Iterator[Tuple[ast.ClassDef, ast.FunctionDef]]:
    """Every class in ``tree`` that defines ``receive``, with that method."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "receive":
                yield node, item


class MessageProtocolRule(Rule):
    """The message routing table (:data:`PROTOCOL`)
    declares, for every wire command/message type, which actor classes
    dispatch it.  Each actor's ``receive`` is an ``isinstance`` chain
    ending in ``raise TypeError`` -- so a routed message without a branch
    is a *runtime crash on first send*, and a branch for a message no
    peer ever routes here is dead protocol surface that silently rots.

    Checked per actor class defined in the analyzed file:

    * **unhandled** -- a message routed to this actor has no
      ``isinstance(message, Type)`` branch in its ``receive``;
    * **dead handler** -- a branch dispatches a known wire type that the
      table does not route to this actor;
    * **unknown type** -- a branch dispatches a name that is neither in
      the routing table nor in :data:`UNROUTED` (usually a typo or a
      type someone forgot to declare).

    A wire dataclass defined in a protocol file
    (:data:`~repro.analysis.project.WIRE_MESSAGES`) that is neither
    routed to any actor nor listed in :data:`UNROUTED` is also flagged
    at its definition: every message type must either have a consumer
    or be explicitly declared as a carried payload.
    """

    ID = "MSG001"
    SUMMARY = "wire message without a dispatch branch (or dead handler)"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        known = set(PROTOCOL) | UNROUTED
        for class_node, receive in actors(ctx.tree):
            expected = frozenset(
                message
                for message, routed_to in PROTOCOL.items()
                if class_node.name in routed_to
            )
            if not expected:
                continue
            dispatched = dispatch_map(receive)
            handled = {name for name, _ in dispatched}
            for message in sorted(expected - handled):
                yield Finding(
                    receive.lineno,
                    receive.col_offset,
                    f"actor `{class_node.name}` has no dispatch branch for "
                    f"routed message `{message}`",
                )
            for name, line in dispatched:
                if name in expected:
                    continue
                if name in known:
                    yield Finding(
                        line,
                        0,
                        f"dead handler: `{name}` is not routed to actor "
                        f"`{class_node.name}` in the protocol table",
                    )
                else:
                    yield Finding(
                        line,
                        0,
                        f"dispatch on `{name}`, which is neither routed nor "
                        "listed in unrouted-messages",
                    )
        yield from self._undeclared_wire_types(ctx, known)

    @staticmethod
    def _undeclared_wire_types(
        ctx: RuleContext, known: Set[str]
    ) -> Iterator[Finding]:
        """Wire dataclasses in protocol files must be routed or unrouted."""
        wire = ctx.facts.wire_messages
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef) or node.name in known:
                continue
            location = wire.get(node.name)
            if location is None or location[0] != ctx.path:
                continue
            yield Finding(
                node.lineno,
                node.col_offset,
                f"wire message `{node.name}` is neither routed to any actor "
                "nor listed in unrouted-messages (dead wire type?)",
            )
