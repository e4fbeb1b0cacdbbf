"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parents[1]


class TestPlatformsCommand:
    def test_lists_all_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("tdx", "sev-snp", "cca", "novm"):
            assert name in out

    def test_marks_simulated(self, capsys):
        main(["platforms"])
        out = capsys.readouterr().out
        assert "(simulated)" in out


class TestInvokeCommand:
    def test_invoke_prints_trials(self, capsys):
        code = main(["invoke", "-f", "factors", "-l", "lua",
                     "-t", "2", "--args", '{"n": 12}'])
        assert code == 0
        out = capsys.readouterr().out
        assert "trial 0" in out and "trial 1" in out
        assert "ms" in out

    def test_invoke_output_payload(self, capsys):
        main(["invoke", "-f", "factors", "-l", "lua", "-t", "1",
              "--args", '{"n": 12}'])
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["result"] == [1, 2, 3, 4, 6, 12]

    def test_invoke_normal_flag(self, capsys):
        assert main(["invoke", "-f", "ack", "-l", "go", "-t", "1",
                     "--normal", "--args", '{"m": 2, "n": 2}']) == 0

    def test_unknown_platform_is_error(self, capsys):
        code = main(["invoke", "-f", "factors", "-l", "lua",
                     "-p", "enclave9000", "-t", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_prints_ratio(self, capsys):
        assert main(["compare", "-f", "cpustress", "-l", "lua",
                     "-p", "tdx", "-t", "3"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "overhead" in out

    def test_seed_changes_numbers(self, capsys):
        main(["--seed", "1", "compare", "-f", "cpustress", "-l", "lua",
              "-t", "2"])
        first = capsys.readouterr().out
        main(["--seed", "2", "compare", "-f", "cpustress", "-l", "lua",
              "-t", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_same_seed_is_deterministic(self, capsys):
        main(["--seed", "5", "compare", "-f", "factors", "-l", "go",
              "-t", "2"])
        first = capsys.readouterr().out
        main(["--seed", "5", "compare", "-f", "factors", "-l", "go",
              "-t", "2"])
        second = capsys.readouterr().out
        assert first == second


class TestExperimentCommand:
    def test_fig5_quick(self, capsys):
        assert main(["experiment", "fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "attest" in out and "check" in out

    def test_dbms_quick(self, capsys):
        assert main(["experiment", "dbms", "--quick"]) == 0
        assert "AVERAGE" in capsys.readouterr().out

    def test_fig4_quick(self, capsys):
        assert main(["experiment", "fig4", "--quick"]) == 0
        assert "UnixBench" in capsys.readouterr().out

    def test_fig6_quick(self, capsys):
        assert main(["experiment", "fig6", "--quick"]) == 0
        assert "cpustress" in capsys.readouterr().out

    def test_fig8_full_workloads_in_fresh_interpreter(self):
        # A fresh interpreter has not imported any harness module, so a
        # lazily exported package attribute that nothing loaded is absent.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "experiment", "fig8",
             "-t", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "whisker span" in proc.stdout

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestArgumentValidation:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invoke_requires_function(self):
        with pytest.raises(SystemExit):
            main(["invoke", "-l", "lua"])


class TestExperimentAll:
    def test_all_quick_reports_findings(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["experiment", "all", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "Fig. 8" in out and "DBMS" in out
        assert "NO" not in out.replace("NOT", "")   # every finding holds


class TestDiffCommand:
    def test_save_and_diff(self, tmp_path, capsys):
        archive = str(tmp_path / "runs.jsonl")
        assert main(["compare", "-f", "factors", "-l", "lua", "-t", "2",
                     "--save", archive, "--label", "before"]) == 0
        assert main(["--seed", "3", "compare", "-f", "factors", "-l", "lua",
                     "-t", "2", "--save", archive, "--label", "after"]) == 0
        capsys.readouterr()
        assert main(["diff", archive, "before", "after"]) == 0
        out = capsys.readouterr().out
        assert "factors/lua on tdx" in out
        assert "%" in out

    def test_diff_missing_label_is_error(self, tmp_path, capsys):
        archive = str(tmp_path / "runs.jsonl")
        main(["compare", "-f", "factors", "-l", "lua", "-t", "1",
              "--save", archive, "--label", "only"])
        capsys.readouterr()
        assert main(["diff", archive, "only", "ghost"]) == 1
        assert "error" in capsys.readouterr().err

    def test_save_into_missing_directory_is_usage_error(self, tmp_path,
                                                        capsys):
        """Checked before any trial runs: exit 2 with a usage line."""
        archive = str(tmp_path / "ghost" / "runs.jsonl")
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "-f", "factors", "-l", "lua", "-t", "1",
                  "--save", archive])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "argument --save: directory does not exist" in captured.err
        assert not (tmp_path / "ghost").exists()

    def test_save_onto_foreign_file_fails_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        """The archive's first-line check runs before the first trial:
        exit 1, no invocation, and the file is left byte-identical."""
        from repro.core.api import ConfBench

        invoked = []
        monkeypatch.setattr(ConfBench, "invoke",
                            lambda *args, **kwargs: invoked.append(args))
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"hello\nworld")
        assert main(["compare", "-f", "factors", "-l", "lua", "-t", "2",
                     "--save", str(notes)]) == 1
        captured = capsys.readouterr()
        assert invoked == []
        assert captured.out == ""
        assert "not a result archive" in captured.err
        assert notes.read_bytes() == b"hello\nworld"


class TestWorkloadsCommand:
    def test_lists_all_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("cpustress", "memstress", "iostress", "ack"):
            assert name in out
        assert "[cpu" in out and "[io" in out
