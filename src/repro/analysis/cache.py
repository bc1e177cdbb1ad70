"""Per-file result cache keyed on content hashes.

The cache stores, per analyzed file, the sha256 of its source plus the
diagnostics that survived inline suppression.  Entries are only valid for
one combination of (engine version, active rule set, config, project
facts) -- a change to any of those rotates ``context_key`` and the whole
cache is discarded, which is the simple-and-correct invalidation story
for a tool whose full run takes single-digit seconds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.diagnostics import Diagnostic

#: Bump when diagnostics change shape or rules change semantics in ways
#: the config/facts keys cannot see.
ENGINE_VERSION = "3"


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def context_key(config_key: str, facts_key: str) -> str:
    blob = f"v{ENGINE_VERSION}\x00{config_key}\x00{facts_key}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Load/lookup/store; ``save`` writes only when something changed."""

    def __init__(self, path: Path, context: str) -> None:
        self.path = path
        self.context = context
        self._entries: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict) or raw.get("context") != self.context:
            return  # stale context: start fresh
        files = raw.get("files")
        if isinstance(files, dict):
            self._entries = files

    def lookup(self, rel_path: str, source_hash: str) -> Optional[List[Diagnostic]]:
        entry = self._entries.get(rel_path)
        if not isinstance(entry, dict) or entry.get("hash") != source_hash:
            self.misses += 1
            return None
        stored = entry.get("diagnostics")
        if not isinstance(stored, list):
            self.misses += 1
            return None
        try:
            diagnostics = [Diagnostic.from_dict(item) for item in stored]
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return diagnostics

    def store(
        self, rel_path: str, source_hash: str, diagnostics: List[Diagnostic]
    ) -> None:
        self._entries[rel_path] = {
            "hash": source_hash,
            "diagnostics": [d.to_dict() for d in diagnostics],
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {"context": self.context, "files": self._entries}
        try:
            self.path.write_text(
                json.dumps(payload, indent=None, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # caching is best-effort; never fail the run over it
        self._dirty = False
