"""CFG001: config field references must exist on the dataclass."""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator

from repro.analysis.rules.base import Finding, Rule, RuleContext

_REPLACE_CALLS = frozenset({"dataclasses.replace", "replace"})


class ConfigFieldsRule(Rule):
    """Experiments and scenario files build ``DynamothConfig`` /
    ``ChaosScenarioConfig`` instances with long keyword lists and read
    their fields by name all over the harness code.  When a field is
    renamed in the dataclass, stale call sites keep "working":
    constructor typos raise only when that experiment is actually run,
    and a misspelled *read* on a config object raises ``AttributeError``
    deep inside a sweep, hours in.

    This rule checks, against the dataclass definitions parsed from the
    configured source files (``AnalysisConfig.config_classes``):

    * constructor keywords -- ``DynamothConfig(publish_rate=...)`` must
      name declared fields;
    * ``dataclasses.replace(cfg, ...)`` keywords, when ``cfg`` is
      annotated with a tracked class in the same scope;
    * attribute reads/writes through names annotated with a tracked class
      (parameters and annotated assignments) -- methods and class
      constants count as valid members, private attributes are ignored.
    """

    ID = "CFG001"
    SUMMARY = "reference to a nonexistent config dataclass field"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        tracked = ctx.facts.config_classes
        if not tracked:
            return
        class_pattern = re.compile(
            r"\b(" + "|".join(re.escape(name) for name in sorted(tracked)) + r")\b"
        )
        yield from self._check_constructors(ctx, tracked)
        for scope_node in self._scopes(ctx.tree):
            bindings = self._bindings(scope_node, class_pattern)
            if not bindings:
                continue
            yield from self._check_attributes(scope_node, bindings, ctx)
            yield from self._check_replace(scope_node, bindings, ctx)

    # -- constructor keywords -----------------------------------------
    def _check_constructors(
        self, ctx: RuleContext, tracked: Dict[str, object]
    ) -> Iterator[Finding]:
        facts = ctx.facts.config_classes
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_class_name(node, ctx)
            if name not in facts:
                continue
            fields = facts[name].fields
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in fields:
                    yield Finding(
                        keyword.value.lineno,
                        keyword.value.col_offset,
                        f"`{name}` has no field `{keyword.arg}`",
                    )

    @staticmethod
    def _call_class_name(node: ast.Call, ctx: RuleContext) -> str:
        resolved = ctx.imports.resolve_call(node.func)
        if resolved is not None:
            return resolved.rsplit(".", 1)[-1]
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return ""

    # -- attribute access through annotated names ---------------------
    @staticmethod
    def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _bindings(
        self, scope: ast.AST, class_pattern: "re.Pattern[str]"
    ) -> Dict[str, str]:
        """Names annotated with a tracked class inside ``scope``."""
        bindings: Dict[str, str] = {}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if arg.annotation is None:
                    continue
                match = class_pattern.search(ast.unparse(arg.annotation))
                if match:
                    bindings[arg.arg] = match.group(1)
            body = scope.body
        else:
            body = getattr(scope, "body", [])
        for stmt in body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                match = class_pattern.search(ast.unparse(stmt.annotation))
                if match:
                    bindings[stmt.target.id] = match.group(1)
        return bindings

    def _check_attributes(
        self,
        scope: ast.AST,
        bindings: Dict[str, str],
        ctx: RuleContext,
    ) -> Iterator[Finding]:
        facts = ctx.facts.config_classes
        for node in self._walk_scope(scope):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.value, ast.Name):
                continue
            class_name = bindings.get(node.value.id)
            if class_name is None or class_name not in facts:
                continue
            if node.attr.startswith("_"):
                continue
            if node.attr not in facts[class_name].members:
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"`{class_name}` has no field or method `{node.attr}` "
                    f"(via `{node.value.id}.{node.attr}`)",
                )

    def _check_replace(
        self,
        scope: ast.AST,
        bindings: Dict[str, str],
        ctx: RuleContext,
    ) -> Iterator[Finding]:
        facts = ctx.facts.config_classes
        for node in self._walk_scope(scope):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            resolved = ctx.imports.resolve_call(node.func)
            if resolved not in _REPLACE_CALLS:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Name):
                continue
            class_name = bindings.get(first.id)
            if class_name is None or class_name not in facts:
                continue
            fields = facts[class_name].fields
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in fields:
                    yield Finding(
                        keyword.value.lineno,
                        keyword.value.col_offset,
                        f"replace() of `{class_name}` names nonexistent "
                        f"field `{keyword.arg}`",
                    )

    @staticmethod
    def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested scopes.

        Nested functions and classes are scopes of their own (they get
        their own ``_bindings`` pass), so their subtrees are skipped here
        to avoid misattributing shadowed names.
        """
        stack = list(getattr(scope, "body", []))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
