"""MUT001: no mutation of a wire message after it escapes into send."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.rules.base import Finding, Rule, RuleContext

#: Call names through which a message escapes the constructing function.
_ESCAPE_CALLS = frozenset({"send", "send_fanout"})

#: Constructor calls producing a shared mutable default on a wire type.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


class MessageMutationRule(Rule):
    """Wire messages are shared by reference once handed to the
    transport: ``send_fanout`` delivers *one* object to many inboxes, and
    the reliability tier caches it for replay.
    Mutating a message after it escaped therefore rewrites history for
    every receiver -- a hazard the frozen-dataclass convention (SLOT001)
    prevents for the committed wire types, but nothing prevented for new
    ones until now.

    Escape-lite tracking, within one function: a local name bound to a
    tracked wire-message constructor *escapes* when it appears as an
    argument to ``send`` / ``send_fanout``; any later ``name.attr = ...``
    (or augmented) assignment is flagged.
    The analysis is linear in source-line order -- loops that mutate on
    the next iteration are out of scope (and moot for frozen types).

    Additionally, in ``wire-messages`` scoped files, a dataclass field
    whose default is a mutable literal (``[]`` / ``{}`` / ``set()``)
    is flagged: even where the dataclass machinery would reject it at
    import time, the lint catches it on unparsed/broken trees too.
    """

    ID = "MUT001"
    SUMMARY = "wire message mutated after escaping into send"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        tracked = self._tracked_names(ctx)
        if tracked:
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(node, tracked, ctx)
        if "wire-messages" in ctx.scopes:
            yield from self._check_mutable_defaults(ctx)

    @staticmethod
    def _tracked_names(ctx: RuleContext) -> Set[str]:
        names: Set[str] = set(ctx.facts.wire_messages)
        names.update(ctx.facts.protocol)
        names.update(ctx.facts.unrouted)
        return names

    # -- escape-lite tracking per function ----------------------------
    def _check_function(
        self,
        fn: ast.AST,
        tracked: Set[str],
        ctx: RuleContext,
    ) -> Iterator[Finding]:
        constructed: Dict[str, int] = {}  # local name -> construction line
        escaped: Dict[str, int] = {}  # local name -> first escape line
        for node in self._linear_walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                class_name = self._call_class(node.value, ctx)
                if class_name in tracked:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            constructed[target.id] = node.lineno
                            escaped.pop(target.id, None)
            elif isinstance(node, ast.Call):
                callee = self._terminal_name(node.func)
                if callee in _ESCAPE_CALLS:
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in constructed:
                            escaped.setdefault(arg.id, node.lineno)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                    ):
                        continue
                    name = target.value.id
                    escape_line = escaped.get(name)
                    if escape_line is not None and node.lineno > escape_line:
                        yield Finding(
                            node.lineno,
                            node.col_offset,
                            f"message `{name}` is mutated after escaping "
                            f"into the transport on line {escape_line}; "
                            "receivers share the object by reference",
                        )

    @staticmethod
    def _linear_walk(fn: ast.AST) -> List[ast.AST]:
        """All nodes of ``fn`` (nested scopes excluded), by source line."""
        nodes: List[ast.AST] = []
        stack = list(getattr(fn, "body", []))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        nodes.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
        return nodes

    @staticmethod
    def _call_class(node: ast.Call, ctx: RuleContext) -> str:
        resolved = ctx.imports.resolve_call(node.func)
        if resolved is not None:
            return resolved.rsplit(".", 1)[-1]
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return ""

    @staticmethod
    def _terminal_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None

    # -- shared mutable defaults on wire dataclasses ------------------
    def _check_mutable_defaults(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.value is not None
                ):
                    continue
                if self._is_mutable_literal(item.value):
                    yield Finding(
                        item.lineno,
                        item.col_offset,
                        f"wire type `{node.name}` field "
                        f"`{item.target.id}` has a shared mutable default",
                    )

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
            and not value.args
            and not value.keywords
        )
