"""Rule plumbing: context objects and shared AST utilities.

Each rule is a class with an ``ID``, a one-line ``SUMMARY``, a docstring
that holds its rationale, and a ``check`` method yielding :class:`Finding`
tuples.  Rules never read files themselves -- the engine hands them a
:class:`RuleContext` with the parsed tree, the file's scope set and the
cross-file :class:`~repro.analysis.project.ProjectFacts`.

The :class:`ImportMap` utility resolves call names the way most rules need
them: ``time.time()`` with ``import time``, ``choice(...)`` with ``from
random import choice`` and ``dt.now()`` with ``from datetime import
datetime as dt`` all resolve to their canonical dotted names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, NamedTuple, Optional, Tuple

from repro.analysis.project import ProjectFacts


class Finding(NamedTuple):
    """One raw rule hit; the engine turns it into a Diagnostic."""

    line: int
    col: int  # 0-based (ast col_offset); engine renders 1-based
    message: str


@dataclass
class RuleContext:
    """Everything a rule may look at for one file."""

    #: project-root-relative posix path
    path: str
    tree: ast.Module
    #: scope tags active for this file (``hot-path``, ``no-io``, ...)
    scopes: FrozenSet[str]
    facts: ProjectFacts
    _imports: Optional["ImportMap"] = None

    @property
    def imports(self) -> "ImportMap":
        if self._imports is None:
            self._imports = ImportMap.from_tree(self.tree)
        return self._imports


class Rule:
    """Base class: subclasses define ID/SUMMARY/SCOPE and ``check``."""

    ID: str = ""
    SUMMARY: str = ""
    #: scope tag required for the rule to run on a file; ``None`` = always.
    SCOPE: Optional[str] = None

    def applies(self, ctx: RuleContext) -> bool:
        return self.SCOPE is None or self.SCOPE in ctx.scopes

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ImportMap:
    """Where names in a module come from.

    ``modules`` maps a local name to the module it denotes (``import time``
    -> ``{"time": "time"}``; ``import os.path`` -> ``{"os": "os"}``;
    ``import numpy as np`` -> ``{"np": "numpy"}``).  ``names`` maps a local
    name to ``(module, original)`` for ``from m import n [as k]``.
    """

    def __init__(
        self,
        modules: Dict[str, str],
        names: Dict[str, Tuple[str, str]],
    ) -> None:
        self.modules = modules
        self.names = names

    @classmethod
    def from_tree(cls, tree: ast.Module) -> "ImportMap":
        modules: Dict[str, str] = {}
        names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        modules[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        modules[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never reach stdlib modules
                for alias in node.names:
                    local = alias.asname if alias.asname is not None else alias.name
                    names[local] = (node.module, alias.name)
        return cls(modules, names)

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Canonical dotted name of a called expression, if resolvable.

        * ``Name`` nodes resolve through ``from``-imports
          (``choice`` -> ``random.choice``) or stay bare (``open``).
        * ``Attribute`` chains resolve their base name through module
          aliases (``np.random.seed`` -> ``numpy.random.seed``).
        * Anything hanging off a non-name expression (``self._rng.random``)
          is *unresolvable* and returns ``None`` -- which is exactly right:
          instance-level RNG streams are the sanctioned pattern.
        """
        if isinstance(func, ast.Name):
            imported = self.names.get(func.id)
            if imported is not None:
                module, original = imported
                return f"{module}.{original}"
            if func.id in self.modules:
                return None  # a bare module reference is not a call target
            return func.id
        if isinstance(func, ast.Attribute):
            parts = [func.attr]
            node: ast.expr = func.value
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            base = node.id
            if base in self.modules:
                parts.append(self.modules[base])
            elif base in self.names:
                module, original = self.names[base]
                parts.append(f"{module}.{original}")
            else:
                return None
            return ".".join(reversed(parts))
        return None
