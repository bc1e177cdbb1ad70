"""Analysis engine: discovery, scoping, suppression.

Pipeline per file::

    source --parse--> tree --rules(applies by scope)--> findings
           --inline `# repro: allow[RULE]` filter--> diagnostics

Scopes come from :data:`SIMULATION_GLOBS` plus ``# repro: scope[TAG]``
pragmas in the first :data:`PRAGMA_SCAN_LINES` lines, so a file outside
the simulation packages (a test fixture, a new subsystem) can opt itself
into ``hot-path`` / ``no-io`` / ``layer-<pkg>`` semantics.

Discovery skips :data:`EXCLUDE` directories, but paths given explicitly on
the command line are always analyzed -- the ruff convention, and what
makes ``python -m repro.analysis check tests/analysis/fixtures/x.py``
usable as a fixture smoke test while ``check src tests`` stays clean.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, sort_key
from repro.analysis.project import ProjectFacts, collect_facts
from repro.analysis.rules import ALL_RULES, RuleContext

#: How many leading lines are searched for ``# repro: scope[...]`` pragmas.
PRAGMA_SCAN_LINES = 15

#: The simulation packages: DET003 (unordered set iteration, scope
#: ``hot-path``) and DET004 (blocking I/O, scope ``no-io``) are on here.
SIMULATION_GLOBS: Tuple[str, ...] = (
    "src/repro/broker/*",
    "src/repro/net/*",
    "src/repro/sim/*",
    "src/repro/core/*",
)

#: Directories skipped during discovery (explicit file arguments are
#: always analyzed, so fixture violations stay directly checkable).
EXCLUDE: Tuple[str, ...] = ("tests/analysis/fixtures",)

_PRAGMA_RE = re.compile(r"#\s*repro:\s*scope\[([a-z0-9_,\s-]+)\]")
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s]+)\]")


@dataclass
class CheckReport:
    """Everything one ``check`` run learned."""

    diagnostics: List[Diagnostic]
    files_analyzed: int


class AnalysisEngine:
    """The analyzer over one project root."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self._facts: Optional[ProjectFacts] = None
        self._rules = [rule_cls() for rule_cls in ALL_RULES]

    @property
    def facts(self) -> ProjectFacts:
        if self._facts is None:
            self._facts = collect_facts(self.root)
        return self._facts

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self, paths: Sequence[Path]) -> List[Path]:
        """Expand files/directories into the sorted list to analyze."""
        found: Set[Path] = set()
        for raw in paths:
            path = (self.root / raw).resolve() if not raw.is_absolute() else raw
            if path.is_file():
                found.add(path)  # explicit files bypass EXCLUDE
            elif path.is_dir():
                for candidate in path.rglob("*.py"):
                    rel = self._rel(candidate)
                    if self._excluded(rel, candidate):
                        continue
                    found.add(candidate)
        return sorted(found)

    @staticmethod
    def _excluded(rel: str, path: Path) -> bool:
        if any(part.startswith(".") or part == "__pycache__" for part in path.parts):
            return True
        return any(rel == prefix or rel.startswith(prefix + "/") for prefix in EXCLUDE)

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    @staticmethod
    def scopes_for(rel_path: str, source: str) -> FrozenSet[str]:
        tags: Set[str] = set()
        if any(fnmatch(rel_path, pattern) for pattern in SIMULATION_GLOBS):
            tags.update(("hot-path", "no-io"))
        for line in source.splitlines()[:PRAGMA_SCAN_LINES]:
            match = _PRAGMA_RE.search(line)
            if match:
                for tag in match.group(1).split(","):
                    tag = tag.strip()
                    if tag:
                        tags.add(tag)
        return frozenset(tags)

    # ------------------------------------------------------------------
    # Per-file analysis
    # ------------------------------------------------------------------
    def analyze_source(self, rel_path: str, source: str) -> List[Diagnostic]:
        """All post-suppression diagnostics for one file's source."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Diagnostic(
                    path=rel_path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    rule="PARSE",
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        ctx = RuleContext(
            path=rel_path,
            tree=tree,
            scopes=self.scopes_for(rel_path, source),
            facts=self.facts,
        )
        diagnostics = [
            Diagnostic(
                path=rel_path,
                line=finding.line,
                col=finding.col + 1,
                rule=rule.ID,
                message=finding.message,
            )
            for rule in self._rules
            if rule.applies(ctx)
            for finding in rule.check(ctx)
        ]
        if not diagnostics:
            return []
        # Tokenizing for suppressions is the slow part; only pay for it
        # in a file where some rule found something.
        allows = _inline_allows(source)
        # de-duplicate (cross-scope rules can re-derive the same hit)
        unique = [
            d
            for d in dict.fromkeys(diagnostics)
            if d.rule not in allows.get(d.line, frozenset())
        ]
        unique.sort(key=sort_key)
        return unique

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def check(self, paths: Sequence[Path]) -> CheckReport:
        files = self.discover(paths)
        found: List[Diagnostic] = []
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                continue
            found.extend(self.analyze_source(self._rel(path), source))
        found.sort(key=sort_key)
        return CheckReport(diagnostics=found, files_analyzed=len(files))


def _inline_allows(source: str) -> Dict[int, FrozenSet[str]]:
    """line number -> rule IDs suppressed on that line.

    Comments are found with :mod:`tokenize` so ``# repro: allow[...]``
    inside a string literal is never treated as a suppression.
    """
    allows: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if not match:
                continue
            rules = frozenset(
                rule.strip()
                for rule in match.group(1).split(",")
                if rule.strip()
            )
            line = token.start[0]
            allows[line] = allows.get(line, frozenset()) | rules
    except (tokenize.TokenError, IndentationError):
        pass
    return allows
