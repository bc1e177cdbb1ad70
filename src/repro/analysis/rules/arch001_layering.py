"""ARCH001: module-level imports must follow the declared layer DAG."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.rules.base import Finding, Rule, RuleContext

_PKG_PREFIX = "src/repro/"

#: Layer DAG: package -> packages it may import at module level, lowest
#: layer first.  ``sim`` is the foundation; ``core`` (the Dynamoth
#: control plane: balancer, dispatcher, client, plans) sits *above*
#: ``broker`` because reconfiguration orchestrates brokers, never the
#: reverse; harnesses (``check``/``lab``/``experiments``/``sweep``) sit
#: on top.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": (),
    "obs": (),
    "analysis": (),
    "net": ("sim",),
    "broker": ("sim", "net", "obs"),
    "core": ("sim", "net", "obs", "broker"),
    "faults": ("sim", "net", "obs", "broker", "core"),
    "workload": ("sim", "net", "obs", "broker", "core"),
    "check": ("sim", "net", "obs", "broker", "core", "faults", "workload"),
    "lab": ("sim", "net", "obs", "broker", "core", "faults", "workload", "experiments"),
    "experiments": (
        "sim",
        "net",
        "obs",
        "broker",
        "core",
        "faults",
        "workload",
    ),
    "sweep": (
        "sim",
        "net",
        "obs",
        "broker",
        "core",
        "faults",
        "workload",
        "check",
        "lab",
        "experiments",
    ),
}


def module_level_repro_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(subpackage, line)`` for each top-level ``repro.<pkg>`` import.

    Only statements directly in the module body count: imports inside
    ``if TYPE_CHECKING:`` blocks, functions, or ``try`` fallbacks are
    deliberate cycle-breakers and never create a runtime layering edge.
    """
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1], stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and not stmt.level:
            parts = stmt.module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                yield parts[1], stmt.lineno
            else:
                # ``from repro import core`` names packages directly
                for alias in stmt.names:
                    yield alias.name, stmt.lineno


class LayeringRule(Rule):
    """:data:`LAYERS` declares the package DAG --
    ``sim`` at the bottom, the control plane (``core``) above the data
    plane (``broker``), harnesses on top.  An import *against* that
    direction smuggles upper-layer state into a foundation module: the
    exact leak that turns the deterministic kernel into something the
    balancer can reach into, and that makes packages impossible to test
    (or reason about) in isolation.

    Only **module-level** imports are checked.  Function-level lazy
    imports and ``if TYPE_CHECKING:`` blocks are the two sanctioned
    cycle-breakers -- they create no import-time edge, so annotations
    and late-bound plumbing stay legal.

    A file's package comes from its ``src/repro/<pkg>/`` path prefix;
    test fixtures opt in with a ``# repro: scope[layer-<pkg>]`` pragma.
    Packages absent from the table are unconstrained (additions to the
    tree must be declared before the rule protects them).
    """

    ID = "ARCH001"
    SUMMARY = "module-level import against the declared layer DAG"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        pkg = self._package_of(ctx)
        if pkg is None or pkg not in LAYERS:
            return
        allowed = set(LAYERS[pkg])
        for target, line in module_level_repro_imports(ctx.tree):
            if target == pkg or target in allowed:
                continue
            permitted = ", ".join(sorted(allowed)) if allowed else "(none)"
            yield Finding(
                line,
                0,
                f"layer `{pkg}` may not import `repro.{target}` at module "
                f"level (allowed: {permitted}); use a function-level or "
                "TYPE_CHECKING import if the dependency is annotation-only",
            )

    @staticmethod
    def _package_of(ctx: RuleContext) -> Optional[str]:
        for tag in ctx.scopes:
            if tag.startswith("layer-"):
                return tag[len("layer-") :]
        if ctx.path.startswith(_PKG_PREFIX):
            remainder = ctx.path[len(_PKG_PREFIX) :]
            if "/" in remainder:
                return remainder.split("/", 1)[0]
        return None
