"""MSG001: actor dispatch must cover the declared message protocol."""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.project import dispatch_map
from repro.analysis.rules.base import Finding, Rule, RuleContext


class MessageProtocolRule(Rule):
    """The message routing table (``AnalysisConfig.protocol``)
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
      the routing table nor in ``unrouted-messages`` (usually a typo or
      a type someone forgot to declare).

    A wire dataclass defined in a protocol file (``wire-messages``) that
    is neither routed to any actor nor listed in ``unrouted-messages``
    is also flagged at its definition: every message type must either
    have a consumer or be explicitly declared as a carried payload.
    """

    ID = "MSG001"
    SUMMARY = "wire message without a dispatch branch (or dead handler)"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        protocol = ctx.facts.protocol
        if not protocol:
            return
        unrouted = ctx.facts.unrouted
        known = set(protocol) | set(unrouted)
        for class_node, receive in self._actors(ctx.tree):
            expected = frozenset(
                message
                for message, actors in protocol.items()
                if class_node.name in actors
            )
            if not expected:
                continue
            dispatched: List[Tuple[str, int]] = dispatch_map(receive)
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
    def _actors(
        tree: ast.Module,
    ) -> Iterator[Tuple[ast.ClassDef, ast.FunctionDef]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "receive":
                    yield node, item

    def _undeclared_wire_types(
        self, ctx: RuleContext, known: Set[str]
    ) -> Iterator[Finding]:
        """Wire dataclasses in protocol files must be routed or unrouted.

        Scoped by the facts map (dataclass name -> defining file) rather
        than the ``wire-messages`` pragma, so fixture files carrying the
        pragma for SLOT001/MUT001 never trip this check.
        """
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
