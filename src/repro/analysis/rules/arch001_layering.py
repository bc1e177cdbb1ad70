"""ARCH001: module-level imports must follow the declared layer DAG."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.project import module_level_repro_imports
from repro.analysis.rules.base import Finding, Rule, RuleContext

_PKG_PREFIX = "src/repro/"


class LayeringRule(Rule):
    """``AnalysisConfig.layers`` declares the package DAG --
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
        layers = ctx.facts.layers
        if not layers:
            return
        pkg = self._package_of(ctx)
        if pkg is None or pkg not in layers:
            return
        allowed = set(layers[pkg])
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
