"""Baseline round-trips, JSON output schema, and CLI exit codes."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, run_lint
from repro.analysis.core import AnalysisError, Finding, Severity
from repro.cli import main

VIOLATION = """
    import time

    def body(kernel):
        return time.time()
"""

VIOLATION_PLUS_ONE = """
    import time

    def body(kernel):
        return time.time()

    def other(kernel):
        return time.monotonic()
"""


def find(tree):
    return run_lint([tree]).findings


class TestBaseline:
    def test_round_trip(self, make_tree, tmp_path):
        findings = find(make_tree({"workloads/w.py": VIOLATION}))
        assert findings
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.fingerprints == baseline.fingerprints
        new, old = loaded.split(findings)
        assert new == [] and old == findings

    def test_new_findings_not_masked(self, make_tree, tmp_path):
        tree = make_tree({"workloads/w.py": VIOLATION})
        baseline = Baseline.from_findings(find(tree))
        tree2 = make_tree({"workloads/w.py": VIOLATION_PLUS_ONE})
        new, old = baseline.split(find(tree2))
        assert [f.symbol for f in new] == ["other"]
        assert [f.symbol for f in old] == ["body"]

    def test_fingerprint_survives_line_shift(self):
        a = Finding(rule="r", severity=Severity.ERROR, path="x/y.py",
                    line=10, col=0, message="m", symbol="f",
                    module="repro.x.y")
        b = Finding(rule="r", severity=Severity.ERROR, path="other/y.py",
                    line=99, col=4, message="m", symbol="f",
                    module="repro.x.y")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint(0) != a.fingerprint(1)

    def test_v2_records_pass_schema(self, make_tree, tmp_path):
        from repro.analysis import PASS_SCHEMA
        from repro.analysis.baseline import BASELINE_VERSION

        findings = find(make_tree({"workloads/w.py": VIOLATION}))
        baseline = Baseline.from_findings(findings, passes=PASS_SCHEMA)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == BASELINE_VERSION == 2
        assert payload["passes"] == PASS_SCHEMA
        loaded = Baseline.load(path)
        assert loaded.passes == PASS_SCHEMA
        assert loaded.fingerprints == baseline.fingerprints

    def test_version_mismatch_rejected(self, tmp_path):
        """Only the current version loads; v1 (no ``passes`` map) too
        is refused, with the version found and the one expected."""
        path = tmp_path / "baseline.json"
        for version in (1, 99):
            path.write_text(json.dumps({"version": version, "findings": []}))
            with pytest.raises(AnalysisError,
                               match=f"has version {version}, expected 2"):
                Baseline.load(path)

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError):
            Baseline.load(path)


class TestNewRuleFingerprintStability:
    """Line churn above a finding must not rotate its fingerprint —
    otherwise baselines for the taint/lock families go stale on every
    unrelated edit."""

    CRYPTO_STUB = """
        def derived_keypair(parent, label, bits=1024):
            return object()
    """
    LEAK = """
        import warnings

        from repro.attest.crypto import derived_keypair


        def leak(rng):
            pair = derived_keypair(rng, "x")
            warnings.warn(f"d={pair.d}")
    """
    RACE = """
        import threading


        class Racy:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def racy(self):
                self.count = 0
    """
    CHURN = "\n# one\n# two\n# three\n"

    def _fingerprints(self, make_tree, files):
        found = find(make_tree(files))
        assert found
        return {(f.rule, f.fingerprint(0)) for f in found}

    def test_taint_fingerprint_survives_line_churn(self, make_tree):
        base = {"attest/crypto.py": self.CRYPTO_STUB}
        before = self._fingerprints(make_tree, {
            **base, "leaky.py": self.LEAK})
        after = self._fingerprints(make_tree, {
            **base, "leaky.py": self.CHURN + textwrap.dedent(self.LEAK)})
        assert before == after

    def test_lock_fingerprint_survives_line_churn(self, make_tree):
        before = self._fingerprints(make_tree, {"racy.py": self.RACE})
        after = self._fingerprints(
            make_tree, {"racy.py": self.CHURN + textwrap.dedent(self.RACE)})
        assert before == after


class TestJsonOutput:
    def test_schema(self, make_tree):
        report = run_lint([make_tree({"workloads/w.py": VIOLATION})])
        payload = json.loads(report.render_json())
        assert set(payload) == {"version", "checked_modules", "findings",
                                "grandfathered", "exit_code"}
        assert payload["exit_code"] == 1
        assert payload["checked_modules"] >= 1
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "severity", "path", "line", "col",
                                "message", "symbol", "module"}
        assert finding["rule"] == "determinism/wallclock"
        assert finding["severity"] == "error"
        assert finding["line"] > 0

    def test_text_format(self, make_tree):
        report = run_lint([make_tree({"workloads/w.py": VIOLATION})])
        text = report.render_text()
        assert "determinism/wallclock" in text
        assert "1 finding(s)" in text
        # path:line:col prefix
        assert ".py:" in text.splitlines()[0]


class TestCliExitCodes:
    def test_clean_tree_exits_zero(self, make_tree, capsys):
        tree = make_tree({"workloads/w.py": "x = 1\n"})
        assert main(["lint", str(tree)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, make_tree, capsys):
        tree = make_tree({"workloads/w.py": VIOLATION})
        assert main(["lint", str(tree)]) == 1
        assert "determinism/wallclock" in capsys.readouterr().out

    def test_json_flag(self, make_tree, capsys):
        tree = make_tree({"workloads/w.py": VIOLATION})
        assert main(["lint", str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]

    def test_bad_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "/no/such/path"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_rules_is_usage_error(self, make_tree, capsys):
        tree = make_tree({"workloads/w.py": "x = 1\n"})
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tree), "--rules", "spelling"])
        assert excinfo.value.code == 2

    def test_missing_baseline_is_usage_error(self, make_tree, capsys):
        tree = make_tree({"workloads/w.py": "x = 1\n"})
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tree), "--baseline", "/no/such/baseline.json"])
        assert excinfo.value.code == 2

    def test_rules_subset_runs_only_selected_pass(self, make_tree):
        tree = make_tree({"workloads/w.py": VIOLATION})
        assert main(["lint", str(tree), "--rules", "layering"]) == 0
        assert main(["lint", str(tree), "--rules", "determinism"]) == 1

    def test_write_then_use_baseline(self, make_tree, tmp_path, capsys):
        tree = make_tree({"workloads/w.py": VIOLATION})
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(tree),
                     "--write-baseline", str(baseline)]) == 0
        assert baseline.is_file()
        capsys.readouterr()
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_experiment_bad_trace_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig5", "--quick",
                  "--trace-out", "/no/such/dir/trace.json"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_experiment_bad_cache_dir_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig5", "--quick",
                  "--cache", "/no/such/dir/cache.jsonl"])
        assert excinfo.value.code == 2


class TestSeededViolationOnRealTreeCopy:
    def test_seeded_wallclock_in_workloads_fails(self, tmp_path, capsys):
        """The acceptance scenario: copy the real tree, seed a
        ``time.time()`` into a workload, and the lint (with the
        committed baseline) must go red."""
        import shutil

        repo = Path(__file__).resolve().parents[2]
        tree = tmp_path / "repro"
        shutil.copytree(repo / "src" / "repro", tree)
        target = tree / "workloads" / "faas" / "compute.py"
        source = target.read_text()
        marker = "from __future__ import annotations"
        target.write_text(source.replace(
            marker,
            marker + "\nimport time\n_T0 = time.time()", 1))
        baseline = repo / "lint-baseline.json"
        assert main(["lint", str(tree), "--baseline", str(baseline)]) == 1
        assert "determinism/wallclock" in capsys.readouterr().out
