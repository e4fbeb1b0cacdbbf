"""Per-file analysis cache keyed by content hashes.

``confbench lint --cache FILE`` persists post-pragma findings between
runs so the CI job (and a local pre-commit loop) only pays for what
changed.  Keys are derived purely from *content*:

- a **module-scope** rule (determinism, hotpath, lock — anything that
  only implements ``check_module``) caches per file, keyed by that
  file's SHA-256.  Editing one file re-analyzes one file.
- a **project-scope** rule (taint, purity, layering) sees the whole
  tree through import and call graphs, so its findings for module M
  are keyed by the joint hash of M's *transitive import closure*
  (:meth:`repro.analysis.dataflow.ImportGraph.closure`).  Editing
  ``attest/crypto.py`` invalidates every module that can reach it —
  exactly the set whose taint summaries could change — and nothing
  else.

Entries also carry the pass schema version
(:data:`repro.analysis.engine.PASS_SCHEMA`); bumping a pass's version
drops its entries wholesale.  Findings are cached *after* pragma
suppression (pragmas live in the hashed source, so a pragma edit is a
content change) and *before* baseline subtraction (baselines change
without touching sources).

The file format is one JSON object; unknown versions and unreadable
files are treated as an empty cache, never an error — a cache must be
safe to delete at any time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.core import Finding, Project
from repro.analysis.dataflow import ImportGraph

CACHE_VERSION = 1


class AnalysisCache:
    """Content-addressed store of per-(rule, module) findings."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.entries: dict[str, list[dict]] = {}
        self.hits = 0
        self.misses = 0
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
        cached = self.entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return [Finding.from_dict(entry) for entry in cached]

    def put(self, key: str, findings: list[Finding]) -> None:
        self.entries[key] = [finding.to_dict() for finding in findings]
        self._dirty = True

    def prune(self, live_keys: set[str]) -> None:
        """Drop entries for content no longer in the tree."""
        stale = [key for key in self.entries if key not in live_keys]
        for key in stale:
            del self.entries[key]
            self._dirty = True


def closure_digests(project: Project) -> dict[str, str]:
    """module name -> hash over its name and its import closure's shas.

    The closure includes the module itself.  Modules outside the
    project contribute nothing (their content is not analyzed).  The
    module's own name leads the hashed blob: every module in one
    import cycle has the same closure, and without the name they
    would share one cache key, so a warm run would replay one module's
    findings once per cycle member.
    """
    graph = ImportGraph.build(project)
    by_name = {module.name: module for module in project.modules}
    digests: dict[str, str] = {}
    for module in project.modules:
        names = sorted(graph.closure(module.name) | {module.name})
        blob = "\x00".join([module.name] + [
            f"{name}={by_name[name].sha}" for name in names
            if name in by_name])
        digests[module.name] = hashlib.sha256(blob.encode()).hexdigest()
    return digests
