"""Diagnostic records and their wire formats.

A :class:`Diagnostic` is one finding at one source location.  Text output
follows ruff's ``path:line:col: RULE message`` shape so editors and CI log
scrapers that already understand ruff pick these up for free; ``to_dict``
is the JSON-artifact form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One static-analysis finding."""

    #: path relative to the project root, posix-separated
    path: str
    #: 1-based line of the offending node
    line: int
    #: 1-based column of the offending node
    col: int
    #: rule identifier, e.g. ``DET001``
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def sort_key(diagnostic: Diagnostic) -> tuple:
    """Deterministic report order: path, position, rule."""
    return (diagnostic.path, diagnostic.line, diagnostic.col, diagnostic.rule)
