"""Analysis cache keyed by content hashes.

``confbench lint --cache FILE`` persists post-pragma findings between
runs so the CI job (and a local pre-commit loop) only pays for what
changed.  Keys are derived from what a finding renders — a module's
path as spelled on the command line and its dotted name — and from
*content*, so two byte-identical files never share an entry:

- a **module-scope** rule (determinism, hotpath, lock — anything that
  only implements ``check_module``) caches per file, keyed by
  :func:`module_digest`.  Editing one file re-analyzes one file.
- a **project-scope** rule (layering, purity, taint) sees the whole
  tree through import and call graphs, so it caches one entry per
  pass, keyed by :func:`tree_digest` over every module's digest.  Any
  edit re-runs each project pass once over the whole tree; an
  unchanged tree replays them without building the symbol index.

Entries also carry the pass schema version
(:data:`repro.analysis.engine.PASS_SCHEMA`); bumping a pass's version
drops its entries wholesale.  Findings are cached *after* pragma
suppression (pragmas live in the hashed source, so a pragma edit is a
content change) and *before* baseline subtraction (baselines change
without touching sources).

The file format is one JSON object; unknown versions and unreadable
files are treated as an empty cache, never an error — a cache must be
safe to delete at any time.  Saving drops every entry the run did not
look up.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.core import Finding, Project, SourceModule

CACHE_VERSION = 1


class AnalysisCache:
    """Content-addressed store of per-(rule, content) findings."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries: dict[str, list[dict]] = {}
        self.hits = 0
        self.misses = 0
        self._looked_up: set[str] = set()
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, ValueError):
            return
        if not isinstance(payload, dict) \
                or payload.get("version") != CACHE_VERSION:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def save(self) -> None:
        """Write the entries this run looked up; drop the rest (content
        no longer in the tree, or a pass this run did not run)."""
        for key in [key for key in self.entries
                    if key not in self._looked_up]:
            del self.entries[key]
            self._dirty = True
        if not self._dirty:
            return
        payload = {"version": CACHE_VERSION, "entries": self.entries}
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(self.path)
        self._dirty = False

    # -- keys ---------------------------------------------------------

    @staticmethod
    def key(rule_id: str, schema: int, digest: str) -> str:
        return f"{rule_id}@{schema}:{digest}"

    def get(self, key: str) -> list[Finding] | None:
        self._looked_up.add(key)
        cached = self.entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return [Finding.from_dict(entry) for entry in cached]

    def put(self, key: str, findings: list[Finding]) -> None:
        self.entries[key] = [finding.to_dict() for finding in findings]
        self._dirty = True


def module_digest(module: SourceModule) -> str:
    """Hash over a module's path as spelled, dotted name and content
    hash: the key material of a module-scope pass's cache entry."""
    blob = f"{module.path}\x00{module.name}\x00{module.sha}"
    return hashlib.sha256(blob.encode()).hexdigest()


def tree_digest(project: Project) -> str:
    """Hash over every module's :func:`module_digest`: the one key
    material of a project-scope pass's cache entry."""
    blob = "\x00".join(module_digest(module) for module in project.modules)
    return hashlib.sha256(blob.encode()).hexdigest()
