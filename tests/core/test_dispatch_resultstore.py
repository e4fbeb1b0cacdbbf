"""Tests for the dispatch transport model and the result archive."""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.dispatch import DispatchModel
from repro.core.gateway import Gateway, InvocationRequest
from repro.core.results import InvocationRecord
from repro.core.resultstore import ResultStore, compare_runs, find_run
from repro.errors import GatewayError
from repro.tee.registry import platform_by_name
from tests.core.test_journal import _bytes_written


class TestDispatchModel:
    def test_round_trip_positive(self):
        model = DispatchModel()
        assert model.round_trip_ns(platform_by_name("tdx")) > 0

    def test_cca_pays_tap_tun_chain(self):
        """§III-B: host<->FVP networking crosses extra hops."""
        model = DispatchModel()
        tdx = model.round_trip_ns(platform_by_name("tdx"))
        cca = model.round_trip_ns(platform_by_name("cca"))
        assert cca > tdx + 500_000   # the 2x2 tap/tun hops

    def test_bigger_payload_costs_more(self):
        model = DispatchModel()
        platform = platform_by_name("tdx")
        small = model.round_trip_ns(platform, request_bytes=1024,
                                    response_bytes=1024)
        large = model.round_trip_ns(platform, request_bytes=1 << 20,
                                    response_bytes=1 << 20)
        assert large > small

    def test_negative_payload_rejected(self):
        with pytest.raises(GatewayError):
            DispatchModel().round_trip_ns(platform_by_name("tdx"),
                                          request_bytes=-1)

    def test_gateway_attaches_transport(self):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="x", base_port=9100),
        ], default_trials=1)
        gateway = Gateway(config)
        gateway.upload("factors")
        record = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx",
        ))[0]
        assert record.transport_ns > 0
        assert record.to_dict()["transport_ns"] == record.transport_ns

    def test_transport_excluded_from_elapsed(self):
        """The figures report execution time, not dispatch time."""
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="x", base_port=9100),
        ], default_trials=1)
        gateway = Gateway(config)
        gateway.upload("ack")
        record = gateway.invoke(InvocationRequest(
            function="ack", language="go", platform="tdx",
            args={"m": 2, "n": 2},
        ))[0]
        # ack(2,2) is microseconds of work; transport is ~ms
        assert record.transport_ns > record.elapsed_ns


def _records(gateway, trials=2):
    gateway.upload("factors")
    secure = gateway.invoke(InvocationRequest(
        function="factors", language="lua", platform="tdx",
        secure=True, trials=trials,
    ))
    normal = gateway.invoke(InvocationRequest(
        function="factors", language="lua", platform="tdx",
        secure=False, trials=trials,
    ))
    return secure + normal


@pytest.fixture
def gateway():
    config = GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="x", base_port=9100),
    ], default_trials=2)
    return Gateway(config)


class TestResultStore:
    def test_save_load_round_trip(self, gateway, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        records = _records(gateway)
        store.save("baseline", seed=0, records=records)
        runs = store.load()
        assert len(runs) == 1
        assert runs[0].label == "baseline"
        assert len(runs[0].records) == len(records)
        assert runs[0].records[0].function == "factors"

    def test_load_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "nope.jsonl").load() == []

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(GatewayError):
            ResultStore(tmp_path / "x.jsonl").save("x", 0, [])

    def test_multiple_runs_appended(self, gateway, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.save("a", seed=0, records=_records(gateway))
        store.save("b", seed=1, records=_records(gateway))
        runs = store.load()
        assert [run.label for run in runs] == ["a", "b"]

    def test_run_by_label(self, gateway, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.save("a", seed=0, records=_records(gateway))
        assert find_run(store.load(), "a").seed == 0
        with pytest.raises(GatewayError):
            find_run(store.load(), "ghost")

    def test_corrupt_line_skipped_with_warning(self, gateway, tmp_path):
        """One bad line costs one line, not the archive."""
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.save("good", seed=0, records=_records(gateway))
        store.save("after", seed=1, records=_records(gateway))
        # in the middle of the file: a bad *final* line is a torn tail
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(len(lines) // 2, "{not json}\n")
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt archive line"):
            runs = store.load()
        assert [run.label for run in runs] == ["good", "after"]
        assert len(store.warnings) == 1

    def test_record_before_run_skipped_with_warning(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "record", "function": "f", "language": null,'
                        ' "platform": "tdx", "secure": true, "trial": 0,'
                        ' "elapsed_ns": 1.0, "output": null, "perf": {}}\n')
        store = ResultStore(path)
        with pytest.warns(UserWarning, match="record before any run"):
            assert store.load() == []

    def test_truncated_final_line_skipped(self, gateway, tmp_path):
        """A torn tail (crashed writer) loses only the torn record."""
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.save("baseline", seed=0, records=_records(gateway))
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole[:-25], encoding="utf-8")   # tear the tail
        with pytest.warns(UserWarning, match="torn final line"):
            runs = ResultStore(path).load()
        assert len(runs) == 1
        assert runs[0].label == "baseline"
        assert len(runs[0].records) == len(_records(gateway)) - 1

    def test_unknown_kind_skipped_with_warning(self, gateway, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.save("baseline", seed=0, records=_records(gateway))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "telemetry", "x": 1}\n')
        with pytest.warns(UserWarning, match="unknown kind"):
            runs = store.load()
        assert [run.label for run in runs] == ["baseline"]

    def test_key_ratios(self, gateway, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.save("a", seed=0, records=_records(gateway, trials=4))
        ratios = find_run(store.load(), "a").key_ratios()
        assert ("factors", "lua", "tdx") in ratios
        assert 0.7 < ratios[("factors", "lua", "tdx")] < 1.6

    def test_compare_runs_drift(self, gateway, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.save("before", seed=0, records=_records(gateway, trials=4))
        store.save("after", seed=0, records=_records(gateway, trials=4))
        runs = store.load()
        drift = compare_runs(find_run(runs, "before"), find_run(runs, "after"))
        entry = drift[("factors", "lua", "tdx")]
        assert set(entry) == {"before", "after", "drift_percent"}

    def test_compare_disjoint_runs_rejected(self, gateway, tmp_path):
        from repro.core.resultstore import ArchivedRun

        a = ArchivedRun(label="a", seed=0, version="1",
                        records=_records(gateway))
        b = ArchivedRun(label="b", seed=0, version="1", records=[])
        with pytest.raises(GatewayError):
            compare_runs(a, b)


class TestTornAndForeignFiles:
    """A save never merges into a torn run, and never touches a file
    the archive did not write."""

    def test_save_after_torn_tail_is_its_own_run(self, gateway, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        before = _records(gateway)
        store.save("before", seed=0, records=before)
        path.write_bytes(path.read_bytes()[:-25])   # tear the last record
        after = _records(gateway)
        with pytest.warns(UserWarning) as caught:
            store.save("after", seed=1, records=after)
            runs = store.load()
        assert [run.label for run in runs] == ["before", "after"]
        assert [r.to_dict() for r in runs[0].records] == \
            [r.to_dict() for r in before[:-1]]
        assert [r.to_dict() for r in runs[1].records] == \
            [r.to_dict() for r in after]
        assert store.warnings == []
        assert ["truncated torn final line" in str(note.message)
                for note in caught] == [True]

    @pytest.mark.parametrize("text", ["hello\nworld", "hello\nworld\n",
                                      '{"kind": "record"}\n', "notes"])
    def test_save_onto_foreign_file_refused_and_unchanged(
            self, gateway, tmp_path, text):
        path = tmp_path / "foreign.txt"
        path.write_text(text)
        with pytest.raises(GatewayError, match="not a result archive"):
            ResultStore(path).save("x", seed=0, records=_records(gateway))
        assert path.read_bytes() == text.encode()

    def test_save_onto_torn_first_write(self, gateway, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"kind": "run", "label": "lost", "se')
        with pytest.warns(UserWarning, match="torn final line"):
            ResultStore(path).save("kept", seed=0, records=_records(gateway))
        assert [run.label for run in ResultStore(path).load()] == ["kept"]

    def test_save_into_missing_directory_refused(self, gateway, tmp_path):
        with pytest.raises(GatewayError, match="directory does not exist"):
            ResultStore(tmp_path / "ghost" / "runs.jsonl").save(
                "x", seed=0, records=_records(gateway))


def _synthetic_records(index, count=3):
    return [InvocationRecord(
        function="cpustress", language="lua", platform="tdx",
        secure=trial % 2 == 0, trial=trial,
        elapsed_ns=1000.0 + index + trial, output=None, perf={})
        for trial in range(count)]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="write accounting reads /proc/self/io")
class TestLinearWrites:
    def test_saves_write_the_archive_once(self, tmp_path, monkeypatch):
        """Exact counts: N saves write each byte of the archive once,
        one fsync per save, and never a temporary file — an archive
        that rewrote itself per save would write O(saves^2) bytes."""
        import tempfile

        saves = 300
        fsyncs = []
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd))
        temps = []
        real_mkstemp = tempfile.mkstemp

        def counting_mkstemp(*args, **kwargs):
            temps.append(args)
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", counting_mkstemp)
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        written_before = _bytes_written()
        inodes = set()
        for index in range(saves):
            store.save(f"run-{index}", seed=index,
                       records=_synthetic_records(index))
            inodes.add(path.stat().st_ino)
        written = _bytes_written() - written_before
        assert written == path.stat().st_size
        assert len(fsyncs) == saves
        assert temps == []
        assert os.listdir(tmp_path) == ["runs.jsonl"]
        assert len(inodes) == 1
        runs = store.load()
        assert [run.label for run in runs] == [f"run-{i}" for i in range(saves)]


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"


class TestOldArchive:
    """An archive written by ``confbench compare --save`` before the
    store became append-only (``-t 3``, labels ``v1`` at seed 0 and
    ``v2`` at seed 3) still loads and diffs the same."""

    ARCHIVE = GOLDEN_DIR / "archive_v1_v2.jsonl"

    def test_loads_the_same_runs(self):
        runs = ResultStore(self.ARCHIVE).load()
        assert [(run.label, run.seed, run.version, len(run.records))
                for run in runs] == [("v1", 0, "1.0.0", 6),
                                     ("v2", 3, "1.0.0", 6)]
        # every record re-serialises to its archived line, byte for byte
        lines = []
        for run in runs:
            lines.append(json.dumps({
                "kind": "run", "label": run.label, "seed": run.seed,
                "version": run.version, "records": len(run.records)}))
            lines.extend(json.dumps({"kind": "record", **record.to_dict()})
                         for record in run.records)
        assert "\n".join(lines) + "\n" == self.ARCHIVE.read_text()

    def test_diff_prints_the_same_bytes(self, capsys):
        assert main(["diff", str(self.ARCHIVE), "v1", "v2"]) == 0
        expected = (GOLDEN_DIR / "archive_v1_v2.diff.txt").read_text()
        assert capsys.readouterr().out == expected
