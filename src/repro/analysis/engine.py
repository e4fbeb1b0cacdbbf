"""Lint driver: paths in, rendered report + exit code out.

This is the layer ``confbench lint`` (and the in-tree meta-test) sits
on: assemble the default rule set, load the project, run the analyzer,
subtract the baseline, and render text, JSON, or SARIF.  Exit-code
convention (shared with ``confbench experiment``): 0 = clean,
1 = findings (or a failed shape check), 2 = usage error (argparse).

Two execution knobs exist for CI hygiene, both output-invariant:

- ``jobs > 1`` fans the passes out over worker processes; results are
  merged and globally sorted, so serial and parallel runs render
  byte-identically.
- ``cache_path`` persists per-(rule, module) findings keyed by content
  hashes (:mod:`repro.analysis.cache`); a warm cache run re-analyzes
  only what changed, invalidating transitively through the import
  graph for the cross-module passes.

:data:`PASS_SCHEMA` versions each pass's finding *semantics*: bump a
pass's number when its rules/messages change meaningfully, and stale
cache entries and baselines age out instead of lying.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.cache import AnalysisCache, closure_digests
from repro.analysis.concurrency import LockDisciplineRule
from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    load_project,
)
from repro.analysis.core import _pragma_rule_ids
from repro.analysis.determinism import DeterminismRule
from repro.analysis.hotpath import HotPathRule
from repro.analysis.layering import LayeringRule
from repro.analysis.purity import TrialPurityRule
from repro.analysis.taint import ConfidentialTaintRule

#: Every production pass, by rule id (``--rules`` spelling).
RULE_REGISTRY: dict[str, type[Rule]] = {
    "determinism": DeterminismRule,
    "layering": LayeringRule,
    "purity": TrialPurityRule,
    "hotpath": HotPathRule,
    "taint": ConfidentialTaintRule,
    "lock": LockDisciplineRule,
}

#: Pass semantics version, recorded in baselines and cache keys.
PASS_SCHEMA: dict[str, int] = {
    "determinism": 1,
    "layering": 1,
    "purity": 2,
    "hotpath": 1,
    "taint": 1,
    "lock": 1,
}

def _SORT_KEY(f):
    # total order: ties beyond (path, line, col, rule) broken
    # by message/symbol so serial, parallel, and cached runs
    # render byte-identically
    return (f.path, f.line, f.col, f.rule, f.message, f.symbol)


_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def default_rules() -> list[Rule]:
    """The six contract-enforcing passes, in reporting order."""
    return [DeterminismRule(), LayeringRule(), TrialPurityRule(),
            HotPathRule(), ConfidentialTaintRule(), LockDisciplineRule()]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]              # new (non-baselined) findings
    grandfathered: list[Finding] = field(default_factory=list)
    checked_modules: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        errors = sum(1 for f in self.findings if f.severity.value == "error")
        warnings = len(self.findings) - errors
        summary = (f"{len(self.findings)} finding(s) "
                   f"({errors} error(s), {warnings} warning(s)) "
                   f"in {self.checked_modules} module(s)")
        if self.grandfathered:
            summary += f"; {len(self.grandfathered)} baselined"
        lines.append(summary if self.findings
                     else f"clean: {summary}")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({
            "version": 1,
            "checked_modules": self.checked_modules,
            "findings": [f.to_dict() for f in self.findings],
            "grandfathered": len(self.grandfathered),
            "exit_code": self.exit_code,
        }, indent=2)

    def render_sarif(self) -> str:
        """SARIF 2.1.0, the format CI code-scanning upload consumes."""
        rule_ids = sorted({f.rule for f in self.findings})
        rule_index = {rule: i for i, rule in enumerate(rule_ids)}
        results = []
        for finding, fingerprint in _occurrence_fingerprints(self.findings):
            results.append({
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": "error" if finding.severity.value == "error"
                         else "warning",
                "message": {"text": finding.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/")},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    },
                    "logicalLocations": [{
                        "fullyQualifiedName":
                            f"{finding.module}.{finding.symbol}"
                            if finding.symbol else finding.module,
                    }],
                }],
                "partialFingerprints": {
                    "confbenchFingerprint/v1": fingerprint},
            })
        payload = {
            "$schema": _SARIF_SCHEMA,
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "confbench-lint",
                    "informationUri":
                        "https://github.com/confbench/confbench",
                    "rules": [{
                        "id": rule,
                        "shortDescription": {"text": _RULE_BLURBS.get(
                            rule.split("/")[0], "confbench lint pass")},
                    } for rule in rule_ids],
                }},
                "results": results,
            }],
        }
        return json.dumps(payload, indent=2)


_RULE_BLURBS = {
    "determinism": "wall-clock/entropy escapes on deterministic paths",
    "layering": "module import violates the DESIGN.md layer DAG",
    "purity": "module-state mutation on the trial path",
    "hotpath": "per-op charge loop where a batch should be",
    "taint": "confidential data crosses the simulated trust boundary",
    "lock": "guarded attribute accessed without its lock",
}


def _occurrence_fingerprints(findings: list[Finding]
                             ) -> list[tuple[Finding, str]]:
    counts: dict[tuple, int] = {}
    out = []
    for finding in findings:
        key = (finding.rule, finding.module or finding.path,
               finding.symbol, finding.message)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        out.append((finding, finding.fingerprint(occurrence)))
    return out


# ---------------------------------------------------------------------------
# execution


def _apply_pragmas(findings: list[Finding],
                   project: Project) -> list[Finding]:
    pragma_index = {str(m.path): m.pragmas for m in project.modules}
    kept = []
    for finding in findings:
        pragmas = pragma_index.get(finding.path)
        if pragmas is not None and any(
                pragmas.allows(finding.line, key)
                for key in _pragma_rule_ids(finding.rule)):
            continue
        kept.append(finding)
    return kept


def _run_one_rule(rule: Rule, project: Project) -> list[Finding]:
    """One pass, pragma-filtered, in deterministic order."""
    findings: list[Finding] = []
    for module in project.modules:
        findings.extend(rule.check_module(module))
    findings.extend(rule.check_project(project))
    findings = _apply_pragmas(findings, project)
    findings.sort(key=_SORT_KEY)
    return findings


def _is_module_scope(rule: Rule) -> bool:
    """True when the rule sees one file at a time (cacheable per file)."""
    return type(rule).check_project is Rule.check_project


def _rule_worker(rule: Rule, path_strs: list[str]) -> list[dict]:
    """Subprocess entry: reload the tree, run one pass."""
    project = load_project([Path(p) for p in path_strs])
    return [f.to_dict() for f in _run_one_rule(rule, project)]


def _cached_rule_run(rule: Rule, project: Project, cache: AnalysisCache,
                     closures: dict[str, str]) -> list[Finding]:
    """Run one pass through the cache, filling misses."""
    schema = PASS_SCHEMA.get(rule.id, 1)
    module_scope = _is_module_scope(rule)
    digest_for = {m.name: (m.sha if module_scope else closures[m.name])
                  for m in project.modules}
    keys = {m.name: AnalysisCache.key(rule.id, schema, digest_for[m.name])
            for m in project.modules}

    if module_scope:
        findings: list[Finding] = []
        for module in project.modules:
            cached = cache.get(keys[module.name])
            if cached is None:
                fresh = _apply_pragmas(
                    list(rule.check_module(module)), project)
                fresh.sort(key=_SORT_KEY)
                cache.put(keys[module.name], fresh)
                cached = fresh
            findings.extend(cached)
        findings.sort(key=_SORT_KEY)
        return findings

    cached_all: list[Finding] = []
    complete = True
    for module in project.modules:
        cached = cache.get(keys[module.name])
        if cached is None:
            complete = False
            break
        cached_all.extend(cached)
    if complete:
        cached_all.sort(key=_SORT_KEY)
        return cached_all

    findings = _run_one_rule(rule, project)
    by_path: dict[str, list[Finding]] = {str(m.path): []
                                         for m in project.modules}
    cacheable = True
    for finding in findings:
        bucket = by_path.get(finding.path)
        if bucket is None:
            cacheable = False   # off-tree finding; don't trust a warm hit
            break
        bucket.append(finding)
    if cacheable:
        path_to_name = {str(m.path): m.name for m in project.modules}
        for path, bucket in by_path.items():
            cache.put(keys[path_to_name[path]], bucket)
    return findings


def run_lint(paths: Sequence[Path], rules: Sequence[Rule] | None = None,
             baseline: Baseline | None = None, jobs: int = 1,
             cache_path: Path | None = None) -> LintReport:
    """Run the analyzer over ``paths`` and apply the baseline.

    ``jobs`` and ``cache_path`` change cost, never output: findings are
    merged and globally sorted before rendering.
    """
    project = load_project(paths)
    rule_list = list(rules) if rules is not None else default_rules()

    cache = AnalysisCache(cache_path) if cache_path is not None else None
    closures = closure_digests(project) if cache is not None else {}

    findings: list[Finding] = []
    pending: list[Rule] = []
    for rule in rule_list:
        if cache is not None:
            findings.extend(_cached_rule_run(rule, project, cache, closures))
        else:
            pending.append(rule)

    if pending and jobs > 1:
        path_strs = [str(p) for p in paths]
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = [pool.submit(_rule_worker, rule, path_strs)
                       for rule in pending]
            for future in futures:
                findings.extend(Finding.from_dict(d)
                                for d in future.result())
    else:
        for rule in pending:
            findings.extend(_run_one_rule(rule, project))

    if cache is not None:
        live = set()
        for rule in rule_list:
            schema = PASS_SCHEMA.get(rule.id, 1)
            module_scope = _is_module_scope(rule)
            for module in project.modules:
                digest = module.sha if module_scope \
                    else closures[module.name]
                live.add(AnalysisCache.key(rule.id, schema, digest))
        cache.prune(live)
        cache.save()

    findings.sort(key=_SORT_KEY)
    if baseline is not None:
        new, grandfathered = baseline.split(findings)
    else:
        new, grandfathered = findings, []
    return LintReport(findings=new, grandfathered=grandfathered,
                      checked_modules=len(project.modules),
                      cache_hits=cache.hits if cache else 0,
                      cache_misses=cache.misses if cache else 0)
