"""Lint driver: paths in, rendered report + exit code out.

This is the layer ``confbench lint`` (and the in-tree meta-test) sits
on: assemble the default rule set, load the project, run the analyzer,
subtract the baseline, and render text, JSON, or SARIF.  Exit-code
convention (shared with ``confbench experiment``): 0 = clean,
1 = findings (or a failed shape check), 2 = usage error (argparse).

One run parses the tree once and builds its symbol index at most once
(:attr:`repro.analysis.core.Project.index`, shared by the purity and
taint passes).  ``cache_path`` is the one execution knob, and it is
output-invariant: it persists findings keyed by content hashes
(:mod:`repro.analysis.cache`) — per file for the module-scope passes,
one whole-tree entry for each project-scope pass — so a warm run over
an unchanged tree replays every pass without analyzing anything.

:data:`PASS_SCHEMA` versions each pass's finding *semantics*: bump a
pass's number when its rules/messages change meaningfully, and stale
cache entries and baselines age out instead of lying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import Baseline, _fingerprints
from repro.analysis.cache import AnalysisCache, module_digest, tree_digest
from repro.analysis.concurrency import LockDisciplineRule
from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    load_project,
)
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

#: Rule id -> registry name.  The registry name is the one key of
#: :data:`PASS_SCHEMA` and :data:`_RULE_BLURBS`: the hot-path pass
#: registers as ``hotpath`` but reports as ``hot-path-per-op``.
_PASS_NAMES = {cls.id: name for name, cls in RULE_REGISTRY.items()}


def _pass_name(rule_id: str) -> str:
    """Registry name of the pass behind a rule or finding-family id."""
    return _PASS_NAMES.get(rule_id, rule_id)


def _SORT_KEY(f):
    # total order: ties beyond (path, line, col, rule) broken
    # by message/symbol so uncached and cached runs
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
        for finding, fingerprint in _fingerprints(self.findings):
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
                            _pass_name(rule.split("/")[0]),
                            "confbench lint pass")},
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


# ---------------------------------------------------------------------------
# execution


def _pragma_rule_ids(rule_id: str) -> tuple[str, ...]:
    """Pragma keys that suppress a finding: exact id plus each family
    prefix, so ``allow[determinism]`` covers ``determinism/wallclock``."""
    parts = rule_id.split("/")
    return tuple("/".join(parts[:i + 1]) for i in range(len(parts)))


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


def _cached_rule_run(rule: Rule, project: Project, cache: AnalysisCache,
                     tree: str) -> list[Finding]:
    """Run one pass through the cache, filling misses.

    A module-scope pass looks up one entry per file (keyed by the
    file's path, name and hash); a project-scope pass looks up one
    entry for the whole tree (keyed by ``tree``).
    """
    schema = PASS_SCHEMA.get(_pass_name(rule.id), 1)
    if not _is_module_scope(rule):
        key = AnalysisCache.key(rule.id, schema, tree)
        findings = cache.get(key)
        if findings is None:
            findings = _run_one_rule(rule, project)
            cache.put(key, findings)
        return findings

    findings = []
    for module in project.modules:
        key = AnalysisCache.key(rule.id, schema, module_digest(module))
        cached = cache.get(key)
        if cached is None:
            cached = _apply_pragmas(list(rule.check_module(module)), project)
            cached.sort(key=_SORT_KEY)
            cache.put(key, cached)
        findings.extend(cached)
    return findings


def run_lint(paths: Sequence[Path], rules: Sequence[Rule] | None = None,
             baseline: Baseline | None = None,
             cache_path: Path | None = None) -> LintReport:
    """Run the analyzer over ``paths`` and apply the baseline.

    ``cache_path`` changes cost, never output: findings are globally
    sorted before rendering.
    """
    project = load_project(paths)
    rule_list = list(rules) if rules is not None else default_rules()

    findings: list[Finding] = []
    if cache_path is None:
        cache = None
        for rule in rule_list:
            findings.extend(_run_one_rule(rule, project))
    else:
        cache = AnalysisCache(cache_path)
        tree = tree_digest(project)
        for rule in rule_list:
            findings.extend(_cached_rule_run(rule, project, cache, tree))
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
