"""Analysis engine: discovery, scoping, suppression, caching.

Pipeline per file::

    source --parse--> tree --rules(applies by scope)--> findings
           --inline `# repro: allow[RULE]` filter--> diagnostics
           --cache store--> (on later runs: cache lookup by content hash)

Scopes come from the config globs plus ``# repro: scope[TAG]`` pragmas in
the first :data:`~repro.analysis.config.PRAGMA_SCAN_LINES` lines, so a
file outside the configured trees (a test fixture, a new subsystem) can
opt itself into ``hot-path`` / ``no-io`` / ``wire-messages`` semantics;
``wallclock-ok`` has no glob and can only be claimed by pragma.

Discovery skips ``exclude`` directories, but paths given explicitly on
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

from repro.analysis.cache import ResultCache, content_hash, context_key
from repro.analysis.config import PRAGMA_SCAN_LINES, AnalysisConfig
from repro.analysis.diagnostics import Diagnostic, sort_key
from repro.analysis.project import ProjectFacts, collect_facts
from repro.analysis.rules import ALL_RULES, Rule, RuleContext

_PRAGMA_RE = re.compile(r"#\s*repro:\s*scope\[([a-z0-9_,\s-]+)\]")
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s]+)\]")

#: scope tag -> config attribute holding its globs
_SCOPE_GLOBS: Tuple[Tuple[str, str], ...] = (
    ("hot-path", "hot_paths"),
    ("no-io", "no_io"),
    ("wire-messages", "wire_messages"),
)


@dataclass
class CheckReport:
    """Everything one ``check`` run learned."""

    diagnostics: List[Diagnostic]
    files_analyzed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


class AnalysisEngine:
    """One configured analyzer over one project root."""

    def __init__(
        self,
        root: Path,
        config: Optional[AnalysisConfig] = None,
        facts: Optional[ProjectFacts] = None,
    ) -> None:
        self.root = root.resolve()
        self.config = config if config is not None else AnalysisConfig()
        self._facts = facts
        self._rules: List[Rule] = [
            rule_cls()
            for rule_cls in ALL_RULES
            if rule_cls.ID in self.config.active_rules()
        ]

    @property
    def facts(self) -> ProjectFacts:
        if self._facts is None:
            self._facts = collect_facts(self.root, self.config)
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
                found.add(path)  # explicit files bypass `exclude`
            elif path.is_dir():
                for candidate in path.rglob("*.py"):
                    rel = self._rel(candidate)
                    if self._excluded(rel, candidate):
                        continue
                    found.add(candidate)
        return sorted(found)

    def _excluded(self, rel: str, path: Path) -> bool:
        if any(part.startswith(".") or part == "__pycache__" for part in path.parts):
            return True
        for prefix in self.config.exclude:
            prefix = prefix.rstrip("/")
            if rel == prefix or rel.startswith(prefix + "/") or fnmatch(rel, prefix):
                return True
        return False

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    def scopes_for(self, rel_path: str, source: str) -> FrozenSet[str]:
        tags: Set[str] = set()
        for tag, attr in _SCOPE_GLOBS:
            globs: Tuple[str, ...] = getattr(self.config, attr)
            if any(fnmatch(rel_path, pattern) for pattern in globs):
                tags.add(tag)
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
        lines = source.splitlines()
        ctx = RuleContext(
            path=rel_path,
            tree=tree,
            lines=lines,
            scopes=self.scopes_for(rel_path, source),
            facts=self.facts,
        )
        allows = _inline_allows(source)
        diagnostics: List[Diagnostic] = []
        for rule in self._rules:
            if not rule.applies(ctx):
                continue
            for finding in rule.check(ctx):
                if rule.ID in allows.get(finding.line, frozenset()):
                    continue
                diagnostics.append(
                    Diagnostic(
                        path=rel_path,
                        line=finding.line,
                        col=finding.col + 1,
                        rule=rule.ID,
                        message=finding.message,
                    )
                )
        # de-duplicate (cross-scope rules can re-derive the same hit)
        unique = list(dict.fromkeys(diagnostics))
        unique.sort(key=sort_key)
        return unique

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def check(
        self, paths: Sequence[Path], use_cache: bool = True
    ) -> CheckReport:
        files = self.discover(paths)
        cache: Optional[ResultCache] = None
        if use_cache:
            cache = ResultCache(
                self.root / self.config.cache,
                context_key(
                    self.config.content_hash_parts(), self.facts.cache_key()
                ),
            )
        found: List[Diagnostic] = []
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError:
                continue
            rel = self._rel(path)
            digest = content_hash(source)
            diagnostics: Optional[List[Diagnostic]] = None
            if cache is not None:
                diagnostics = cache.lookup(rel, digest)
            if diagnostics is None:
                diagnostics = self.analyze_source(rel, source)
                if cache is not None:
                    cache.store(rel, digest, diagnostics)
            found.extend(diagnostics)
        if cache is not None:
            cache.save()
        found.sort(key=sort_key)
        return CheckReport(
            diagnostics=found,
            files_analyzed=len(files),
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
        )


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
