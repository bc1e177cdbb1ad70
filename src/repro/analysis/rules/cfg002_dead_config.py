"""CFG002: every config dataclass field must be read somewhere."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.project import CONFIG_CLASSES, attribute_reads
from repro.analysis.rules.base import Finding, Rule, RuleContext


class DeadConfigFieldRule(Rule):
    """This rule catches config fields that exist but nothing *reads* --
    the knob someone added for an experiment, wired into
    ``__post_init__`` validation, and then never actually consulted.
    Dead config fields are worse than dead code: sweep configs keep
    setting them, reviewers keep reasoning about them, and the behaviour
    they promise silently never happens.

    The rule runs on files defining a tracked config class
    (:data:`~repro.analysis.project.CONFIG_CLASSES`) and flags any public
    field whose name is read nowhere.  Evidence of a read is any
    attribute load or ``getattr(obj, "name")`` literal, collected in
    pass 1 across all of ``src/`` plus this file -- *except*
    ``self.<field>`` reads inside the config class's own body, so
    ``__post_init__`` validation (which touches every field by design)
    cannot keep a dead knob alive.

    A same-named attribute read on an unrelated object does count as
    evidence: the rule trades false negatives for zero false positives,
    which is the right bias for a lint that gates CI.
    """

    ID = "CFG002"
    SUMMARY = "config dataclass field that is never read (dead knob)"

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        defined = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES
        ]
        if not defined:
            return
        reads = ctx.facts.config_field_reads | attribute_reads(ctx.tree)
        for node in defined:
            for item in node.body:
                if not (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                ):
                    continue
                name = item.target.id
                if name.startswith("_") or "ClassVar" in ast.unparse(
                    item.annotation
                ):
                    continue
                if name not in reads:
                    yield Finding(
                        item.lineno,
                        item.col_offset,
                        f"`{node.name}.{name}` is never read outside its own "
                        "class body (dead config knob)",
                    )
