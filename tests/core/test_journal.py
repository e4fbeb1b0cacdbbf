"""Tests for the durable trial journal and sweep resume."""

import json
import os
import sys

import pytest

from repro.cli import main
from repro.core.journal import JOURNAL_VERSION, TrialJournal
from repro.core.runner import TrialPlan, TrialRunner
from repro.errors import GatewayError


def small_plan(trials=2, seed=0, platform="tdx"):
    return TrialPlan.matrix(
        kind="faas", platforms=(platform,), workloads=("cpustress",),
        runtimes=("lua",), trials=trials, seed=seed,
    )


def dump(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


FAULT_SPEC = ("vm-crash=0.3,slow-trial=0.2,attest-transient=0.2,"
              "pcs-timeout=0.2,seed=11")


class TestJournalBasics:
    def test_records_every_trial(self, tmp_path):
        journal = TrialJournal(tmp_path / "sweep.jsonl")
        plan = small_plan(trials=2)
        TrialRunner(journal=journal).run(plan)
        assert journal.recorded == len(plan.specs)
        assert len(journal) == len(plan.specs)
        journal.close()

    def test_header_line_written_first(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with TrialJournal(path) as journal:
            TrialRunner(journal=journal).run(small_plan(trials=1))
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"kind": "journal", "version": JOURNAL_VERSION}

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(GatewayError, match="directory does not exist"):
            TrialJournal(tmp_path / "ghost" / "sweep.jsonl")

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(GatewayError, match="is a directory"):
            TrialJournal(tmp_path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"kind": "journal", "version": 999}\n')
        with pytest.raises(GatewayError, match="unsupported journal version"):
            TrialJournal(path)

    def test_put_dedupes_by_hash(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        plan = small_plan(trials=1)
        with TrialJournal(path) as journal:
            results = TrialRunner(journal=journal).run(plan)
            for spec, result in zip(plan.specs, results):
                journal.put(spec, result)   # second offer: no-op
            assert journal.recorded == len(plan.specs)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(plan.specs)   # header + one per trial


class TestReplayIdentity:
    def test_resumed_serial_run_bit_identical(self, tmp_path):
        plan = small_plan(trials=3)
        baseline = TrialRunner().run(plan)
        with TrialJournal(tmp_path / "j.jsonl") as journal:
            first = TrialRunner(journal=journal).run(plan)
        with TrialJournal(tmp_path / "j.jsonl") as journal:
            replayed = TrialRunner(journal=journal).run(plan)
            assert journal.replayed == len(plan.specs)
            assert journal.recorded == 0
        assert dump(baseline) == dump(first) == dump(replayed)

    def test_resume_midway_executes_only_missing_tail(self, tmp_path):
        """A journal holding a prefix replays it and runs the rest."""
        path = tmp_path / "j.jsonl"
        plan = small_plan(trials=4)
        baseline = TrialRunner().run(plan)
        half = TrialPlan(specs=plan.specs[:4])
        with TrialJournal(path) as journal:
            TrialRunner(journal=journal).run(half)
        with TrialJournal(path) as journal:
            resumed = TrialRunner(journal=journal).run(plan)
            assert journal.replayed == 4
            assert journal.recorded == len(plan.specs) - 4
        assert dump(baseline) == dump(resumed)

    def test_resumed_parallel_run_bit_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        plan = small_plan(trials=4)
        baseline = TrialRunner().run(plan)
        half = TrialPlan(specs=plan.specs[:3])
        with TrialJournal(path) as journal:
            TrialRunner(journal=journal).run(half)
        with TrialJournal(path) as journal:
            resumed = TrialRunner(jobs=4, journal=journal).run(plan)
        assert dump(baseline) == dump(resumed)

    def test_resume_under_faults_bit_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        plan = small_plan(trials=4, seed=3)
        baseline = TrialRunner(faults=FAULT_SPEC).run(plan)
        assert any(r.faults_injected for r in baseline)
        half = TrialPlan(specs=plan.specs[:4])
        with TrialJournal(path) as journal:
            TrialRunner(journal=journal, faults=FAULT_SPEC).run(half)
        with TrialJournal(path) as journal:
            resumed = TrialRunner(journal=journal,
                                  faults=FAULT_SPEC).run(plan)
        assert dump(baseline) == dump(resumed)


class TestCrashRecovery:
    def _journaled(self, tmp_path, trials=2):
        path = tmp_path / "j.jsonl"
        plan = small_plan(trials=trials)
        with TrialJournal(path) as journal:
            TrialRunner(journal=journal).run(plan)
        return path, plan

    def test_torn_final_line_truncated_not_fatal(self, tmp_path):
        path, plan = self._journaled(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-30])   # tear the last append mid-line
        with pytest.warns(UserWarning, match="torn final line"):
            journal = TrialJournal(path)
        assert len(journal) == len(plan.specs) - 1
        # the file itself was repaired: reopening is clean
        journal.close()
        clean = TrialJournal(path)
        assert clean.warnings == []
        assert len(clean) == len(plan.specs) - 1
        clean.close()

    def test_torn_line_with_newline_truncated(self, tmp_path):
        """A flushed newline after a half-written JSON doc is torn too."""
        path, plan = self._journaled(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-30] + b"\n")
        with pytest.warns(UserWarning, match="torn final line"):
            journal = TrialJournal(path)
        assert len(journal) == len(plan.specs) - 1
        journal.close()

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        path, plan = self._journaled(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(2, "{corrupt")   # after header + first trial
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="corrupt journal line"):
            journal = TrialJournal(path)
        assert len(journal) == len(plan.specs)
        assert any("skipped" in note for note in journal.warnings)
        journal.close()

    def test_only_the_final_bad_line_is_truncated(self, tmp_path):
        """A crash tears one line: earlier bad lines stay, skipped."""
        path, plan = self._journaled(tmp_path)
        journaled = path.read_bytes()
        path.write_bytes(journaled + b"alpha\nbeta\ngamma\n")
        with pytest.warns(UserWarning) as caught:
            journal = TrialJournal(path)
        notes = [str(warning.message) for warning in caught]
        assert sum("torn final line" in note for note in notes) == 1
        assert sum("skipped corrupt journal line" in note
                   for note in notes) == 2
        assert len(journal) == len(plan.specs)
        journal.close()
        assert path.read_bytes() == journaled + b"alpha\nbeta\n"

    def test_recovered_journal_still_resumes_identically(self, tmp_path):
        path, plan = self._journaled(tmp_path, trials=3)
        baseline = TrialRunner().run(plan)
        raw = path.read_bytes()
        path.write_bytes(raw[:-25])
        with pytest.warns(UserWarning):
            journal = TrialJournal(path)
        with journal:
            resumed = TrialRunner(journal=journal).run(plan)
            # the torn trial re-executed, the rest replayed
            assert journal.recorded == 1
            assert journal.replayed == len(plan.specs) - 1
        assert dump(baseline) == dump(resumed)

    def test_appends_after_recovery_land_on_clean_boundary(self, tmp_path):
        path, plan = self._journaled(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-30])
        with pytest.warns(UserWarning):
            journal = TrialJournal(path)
        with journal:
            TrialRunner(journal=journal).run(plan)
        for line in path.read_text().splitlines():
            json.loads(line)   # every line is whole again


class TestForeignFiles:
    """The journal refuses, untouched, any file it did not write."""

    def test_text_file_refused_and_unchanged(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("first note\nsecond note\nthird note\n")
        before = path.read_bytes()
        with pytest.raises(GatewayError, match="not a trial journal"):
            TrialJournal(path)
        assert path.read_bytes() == before

    def test_text_file_without_newline_refused(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("one unterminated note")
        with pytest.raises(GatewayError, match="not a trial journal"):
            TrialJournal(path)
        assert path.read_text() == "one unterminated note"

    def test_old_cache_format_refused_and_unchanged(self, tmp_path):
        """The retired result cache wrote headerless ``{"hash",
        "result"}`` lines; such a file is refused, not half-read."""
        plan = small_plan(trials=1)
        path = tmp_path / "cache.jsonl"
        lines = [json.dumps({"hash": spec.content_hash(),
                             "result": result.to_dict()})
                 for spec, result in zip(plan, TrialRunner().run(plan))]
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        with pytest.raises(GatewayError, match="not a trial journal"):
            TrialJournal(path)
        assert path.read_bytes() == before

    def test_torn_header_opens_and_resumes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "jour')
        plan = small_plan(trials=1)
        with pytest.warns(UserWarning, match="torn final line"):
            journal = TrialJournal(path)
        with journal:
            first = TrialRunner(journal=journal).run(plan)
            assert journal.recorded == len(plan.specs)
        with TrialJournal(path) as journal:
            again = TrialRunner(journal=journal).run(plan)
            assert journal.replayed == len(plan.specs)
        assert dump(first) == dump(again)
        assert json.loads(path.read_text().splitlines()[0]) == {
            "kind": "journal", "version": JOURNAL_VERSION}

    def test_cli_refuses_foreign_file(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("keep me\n")
        assert main(["experiment", "fig5", "--quick",
                     "--resume", str(path)]) == 1
        assert "not a trial journal" in capsys.readouterr().err
        assert path.read_text() == "keep me\n"


class _Spec:
    def __init__(self, index):
        self.index = index

    def content_hash(self):
        return f"{self.index:064x}"


class _Result:
    def __init__(self, index):
        self.index = index

    def to_dict(self):
        return {"trial": self.index, "elapsed_ns": 1000.0 + self.index,
                "platform": "tdx", "secure": self.index % 2 == 0}


def _bytes_written():
    """This process's cumulative ``write(2)`` byte count (Linux)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            name, _, value = line.partition(":")
            if name == "wchar":
                return int(value)
    raise AssertionError("no wchar in /proc/self/io")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="write accounting reads /proc/self/io")
class TestLinearWrites:
    def test_puts_write_the_file_once(self, tmp_path, monkeypatch):
        """Exact counts: a sweep writes each byte of its journal once,
        one fsync per put, and never a temporary file — a journal that
        rewrote itself per put would write O(puts^2) bytes."""
        import tempfile

        puts = 5_000
        fsyncs = []
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd))
        temps = []
        real_mkstemp = tempfile.mkstemp

        def counting_mkstemp(*args, **kwargs):
            temps.append(args)
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", counting_mkstemp)
        path = tmp_path / "sweep.jsonl"
        journal = TrialJournal(path)
        inode = path.stat().st_ino
        written_before = _bytes_written()
        for index in range(puts):
            journal.put(_Spec(index), _Result(index))
        written = _bytes_written() - written_before
        journal.close()
        assert written == path.stat().st_size
        assert len(fsyncs) == puts
        assert temps == []
        assert os.listdir(tmp_path) == ["sweep.jsonl"]
        assert path.stat().st_ino == inode
        with TrialJournal(path) as reopened:
            assert len(reopened) == puts


class TestCliStore:
    def test_cache_and_resume_share_one_journal(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["experiment", "fig5", "--quick",
                     "--cache", str(store)]) == 0
        cold = capsys.readouterr().out
        assert main(["experiment", "fig5", "--quick", "--resume", str(store),
                     "--metrics-out", str(metrics)]) == 0
        warm = capsys.readouterr().out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["runner.trials_executed"] == 0
        assert counters["runner.trials_replayed"] == counters["runner.trials"]
        assert "runner.trials_cached" not in counters
        assert warm.startswith(f"resuming from {store}: ")
        assert "journal: 0 replayed" in cold
        assert f"recorded -> {store}" in warm
