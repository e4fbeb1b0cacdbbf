"""Property: both append-only stores survive a cut at any byte.

A file written by several appends is cut at an arbitrary byte, as a
crash mid-append would leave it.  Every journal entry or archive run
that was complete before the cut must load, and the next append must
land as its own entry or run, merged into nothing.
"""

import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.journal import TrialJournal
from repro.core.results import InvocationRecord
from repro.core.resultstore import ResultStore

CUT_SETTINGS = settings(max_examples=100, deadline=None)


def _cut(path: Path, data) -> int:
    """Cut ``path`` at a drawn byte offset; returns the offset."""
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    path.write_bytes(raw[:cut])
    return cut


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
                "span": {"z": self.index, "a": -self.index}}


@CUT_SETTINGS
@given(sessions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       data=st.data())
def test_journal_cut_at_any_byte(sessions, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        ends = []   # file size once each entry was complete
        index = 0
        for puts in sessions:
            with TrialJournal(path) as journal:
                for _ in range(puts):
                    journal.put(_Spec(index), _Result(index))
                    ends.append(path.stat().st_size)
                    index += 1
        cut = _cut(path, data)
        complete = sum(end <= cut for end in ends)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            journal = TrialJournal(path)
        with journal:
            assert len(journal) == complete
            journal.put(_Spec(index), _Result(index))
        with TrialJournal(path) as reopened:
            assert reopened.warnings == []
            assert len(reopened) == complete + 1
        header, *entries = [json.loads(line)
                            for line in path.read_text().splitlines()]
        assert header == {"kind": "journal", "version": 1}
        assert entries == [
            {"kind": "trial", "hash": _Spec(kept).content_hash(),
             "result": _Result(kept).to_dict()}
            for kept in [*range(complete), index]]


def _records(run, count):
    return [InvocationRecord(
        function="cpustress", language="lua", platform="tdx",
        secure=trial % 2 == 0, trial=trial, elapsed_ns=run * 100.0 + trial,
        output={"run": run}, perf={"cycles": trial})
        for trial in range(count)]


def _dicts(records):
    return [record.to_dict() for record in records]


@CUT_SETTINGS
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       data=st.data())
def test_archive_cut_at_any_byte(sizes, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        store = ResultStore(path)
        saved = []   # (label, records, file size once the run was complete)
        for run, count in enumerate(sizes):
            records = _records(run, count)
            store.save(f"run-{run}", seed=run, records=records)
            saved.append((f"run-{run}", records, path.stat().st_size))
        cut = _cut(path, data)
        complete = [(label, records) for label, records, end in saved
                    if end <= cut]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded = store.load()
            extra = _records(99, 2)
            store.save("next", seed=99, records=extra)
        runs = store.load()
        assert store.warnings == []
        for cut_runs in (loaded, runs[:-1]):
            assert [(run.label, _dicts(run.records))
                    for run in cut_runs[:len(complete)]] == \
                [(label, _dicts(records)) for label, records in complete]
            # at most one run was cut short, keeping a prefix of its records
            assert len(cut_runs) - len(complete) in (0, 1)
            if len(cut_runs) > len(complete):
                label, records, _ = saved[len(complete)]
                torn = cut_runs[-1]
                assert torn.label == label
                assert _dicts(torn.records) == \
                    _dicts(records)[:len(torn.records)]
        assert (runs[-1].label, _dicts(runs[-1].records)) == \
            ("next", _dicts(extra))
