"""Cross-file project facts for the whole-program rules (pass 1 of 2).

Two rules need to know about files other than the one they check:

* **wire messages** -- every dataclass defined in the
  :data:`WIRE_MESSAGES` files, with its defining location (MSG001's
  universe of wire types that must be routed or declared unrouted);
* **config field reads** -- every attribute name read anywhere under
  ``src/``, *excluding* ``self.<field>`` reads inside a tracked config
  class's own body (CFG002 calls a field dead when nothing outside the
  class ever reads it -- ``__post_init__`` validation must not count).

Facts are collected once per run by parsing source files -- never by
importing them, so the analyzer works on broken trees too.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Set, Tuple

#: Files whose dataclasses are wire messages (MSG001's universe).
WIRE_MESSAGES: Tuple[str, ...] = (
    "src/repro/core/messages.py",
    "src/repro/broker/commands.py",
    "src/repro/core/reliability.py",
)

#: Config dataclasses whose fields CFG002 holds to "read somewhere".
CONFIG_CLASSES: FrozenSet[str] = frozenset(
    {"DynamothConfig", "ChaosScenarioConfig", "RunSpec"}
)


@dataclass(frozen=True)
class ProjectFacts:
    """Everything the cross-file rules know about the project.

    Both are empty when the analyzer runs on a root that does not contain
    the repository; the rules then check the analyzed file alone.
    """

    #: wire dataclass name -> (defining path, line)
    wire_messages: Dict[str, Tuple[str, int]]
    #: attribute names read anywhere under src/ (CFG002 evidence)
    config_field_reads: FrozenSet[str]


def _parse(path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else ""
        )
        if name == "dataclass":
            return True
    return False


def attribute_reads(tree: ast.Module) -> Set[str]:
    """Attribute names ``tree`` reads, minus ``self.<x>`` inside config classes.

    A read is an attribute load or a ``getattr(obj, "name")`` literal.
    """
    skip: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    skip.add(id(inner))
    reads: Set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skip
        ):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            reads.add(node.args[1].value)
    return reads


def collect_facts(root: Path) -> ProjectFacts:
    """Parse the wire-message files and every module under ``src/repro``."""
    wire_messages: Dict[str, Tuple[str, int]] = {}
    for rel_path in WIRE_MESSAGES:
        tree = _parse(root / rel_path)
        if tree is None:
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                wire_messages[node.name] = (rel_path, node.lineno)

    reads: Set[str] = set()
    pkg_root = root / "src" / "repro"
    if pkg_root.is_dir():
        for path in sorted(pkg_root.rglob("*.py")):
            tree = _parse(path)
            if tree is not None:
                reads |= attribute_reads(tree)
    return ProjectFacts(
        wire_messages=wire_messages, config_field_reads=frozenset(reads)
    )
