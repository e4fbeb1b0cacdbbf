"""Committed baselines for grandfathered findings.

A baseline is a JSON file listing finding fingerprints that are
accepted for now: ``confbench lint --baseline FILE`` subtracts them and
fails only on *new* findings, so the linter can land with teeth even
before every legacy finding is fixed.  Fingerprints are line-number
independent (see :meth:`repro.analysis.core.Finding.fingerprint`), so
unrelated edits don't churn the file; fixing a baselined finding simply
leaves a stale entry, which ``--write-baseline`` prunes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import AnalysisError, Finding

BASELINE_VERSION = 2


def _fingerprints(findings: list[Finding]) -> list[tuple[Finding, str]]:
    """Pair findings with occurrence-disambiguated fingerprints (the
    same ones SARIF reports, so a baseline and a scan agree)."""
    counts: dict[tuple[str, str, str, str], int] = {}
    pairs: list[tuple[Finding, str]] = []
    for finding in findings:
        key = (finding.rule, finding.module or finding.path,
               finding.symbol, finding.message)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        pairs.append((finding, finding.fingerprint(occurrence)))
    return pairs


@dataclass
class Baseline:
    """The set of accepted finding fingerprints."""

    fingerprints: frozenset[str] = frozenset()
    entries: list[dict] = field(default_factory=list)
    #: pass schema versions the baseline was generated against
    #: (:data:`repro.analysis.engine.PASS_SCHEMA` at write time)
    passes: dict[str, int] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise AnalysisError(f"cannot read baseline {path}: {exc}") \
                from exc
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"malformed baseline {path}: {exc}") from exc
        if payload.get("version") != BASELINE_VERSION:
            raise AnalysisError(
                f"baseline {path} has version {payload.get('version')!r}, "
                f"expected {BASELINE_VERSION}")
        entries = payload.get("findings", [])
        return cls(fingerprints=frozenset(e["fingerprint"] for e in entries),
                   entries=entries,
                   passes=dict(payload.get("passes", {})))

    @classmethod
    def from_findings(cls, findings: list[Finding],
                      passes: dict[str, int] | None = None) -> "Baseline":
        entries = [
            {
                "fingerprint": fingerprint,
                "rule": finding.rule,
                "module": finding.module,
                "path": finding.path,
                "symbol": finding.symbol,
                "message": finding.message,
            }
            for finding, fingerprint in _fingerprints(findings)
        ]
        return cls(fingerprints=frozenset(e["fingerprint"] for e in entries),
                   entries=entries,
                   passes=dict(passes or {}))

    def save(self, path: Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "comment": "Grandfathered `confbench lint` findings; "
                       "regenerate with --write-baseline.",
            "passes": dict(sorted(self.passes.items())),
            "findings": sorted(self.entries,
                               key=lambda e: (e["path"], e["rule"],
                                              e["fingerprint"])),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    def split(self, findings: list[Finding]
              ) -> tuple[list[Finding], list[Finding]]:
        """Partition into (new, grandfathered) against this baseline."""
        new: list[Finding] = []
        old: list[Finding] = []
        for finding, fingerprint in _fingerprints(findings):
            (old if fingerprint in self.fingerprints else new).append(finding)
        return new, old
