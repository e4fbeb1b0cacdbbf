"""Tests for trace export and the virtual-time profiler."""

import json
from dataclasses import dataclass, field

import pytest

from repro.obs.export import TraceExporter, run_label
from repro.obs.profile import Profile, fold_stacks
from repro.sim.trace import Trace


@dataclass
class FakeRun:
    """The duck-typed slice of RunResult the exporters consume."""

    workload: str = "cpustress"
    platform: str = "tdx"
    secure: bool = True
    trial: int = 0
    trace: Trace = field(default_factory=Trace)


def nested_trace():
    """boot | execute{kernel} — roots partition [0, 300]."""
    trace = Trace()
    trace.record("boot", 0, 100, {"startup": 100.0})
    trace.record("execute", 100, 300, {"cpu": 150.0, "mem_access": 50.0})
    trace.record("kernel", 120, 200, {"cpu": 60.0}, parent="execute")
    return trace


class TestRunLabel:
    def test_label_shape(self):
        run = FakeRun(workload="factors", platform="cca",
                      secure=True, trial=3)
        assert run_label(run) == "factors@cca/secure#3"

    def test_normal_side(self):
        assert run_label(FakeRun(secure=False)).endswith("/normal#0")


class TestTraceExporter:
    def test_from_runs_pid_tid_assignment(self):
        exporter = TraceExporter.from_runs([FakeRun(), FakeRun(trial=1)])
        assert [(r.pid, r.tid) for r in exporter.records] == [(0, 1), (0, 2)]
        assert len(exporter) == 2

    def test_from_history_pid_per_plan(self):
        history = [(None, [FakeRun()]), (None, [FakeRun(), FakeRun(trial=1)])]
        exporter = TraceExporter.from_history(history)
        assert [(r.pid, r.tid) for r in exporter.records] == \
            [(0, 1), (1, 1), (1, 2)]

    def test_chrome_events_metadata_and_spans(self):
        exporter = TraceExporter.from_runs([FakeRun(trace=nested_trace())])
        events = exporter.chrome_events()
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1
        assert meta[0]["args"]["name"] == "cpustress@tdx/secure#0"
        assert len(spans) == 3
        execute = next(e for e in spans if e["name"] == "execute")
        # virtual ns → trace-event µs
        assert execute["ts"] == pytest.approx(0.1)
        assert execute["dur"] == pytest.approx(0.2)
        assert execute["args"]["ledger_ns"] == pytest.approx(200.0)
        kernel = next(e for e in spans if e["name"] == "kernel")
        assert kernel["args"]["parent"] == "execute"

    def test_to_chrome_json_shape(self):
        exporter = TraceExporter.from_runs([FakeRun(trace=nested_trace())])
        payload = json.loads(exporter.to_chrome_json())
        assert payload["displayTimeUnit"] == "ns"
        assert len(payload["traceEvents"]) == 4

    def test_jsonl_one_line_per_span(self):
        exporter = TraceExporter.from_runs([FakeRun(trace=nested_trace())])
        lines = exporter.to_jsonl().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["trial"] == "cpustress@tdx/secure#0"
        assert first["name"] == "boot"

    def test_write_files(self, tmp_path):
        exporter = TraceExporter.from_runs([FakeRun(trace=nested_trace())])
        chrome = tmp_path / "trace.json"
        assert exporter.write_chrome(chrome) == 4
        assert chrome.read_text() == exporter.to_chrome_json()


class TestFoldStacks:
    def test_self_time_subtracts_children(self):
        stacks = fold_stacks(nested_trace())
        assert stacks == {
            "boot": pytest.approx(100.0),
            "execute": pytest.approx(140.0),
            "execute;kernel": pytest.approx(60.0),
        }

    def test_stacks_sum_to_ledger_total(self):
        trace = nested_trace()
        assert sum(fold_stacks(trace).values()) == \
            pytest.approx(trace.ledger_total_ns())

    def test_duplicate_parent_names_resolve_to_enclosing_instance(self):
        """A repeated span name ('retry') must not steal children."""
        trace = Trace()
        trace.record("retry", 0, 100, {"cpu": 10.0})
        trace.record("retry", 200, 300, {"cpu": 10.0})
        trace.record("attempt", 210, 290, {"cpu": 5.0}, parent="retry")
        stacks = fold_stacks(trace)
        # the attempt nests under the second retry, whose self time
        # therefore drops to 5; the first retry keeps its full 10
        assert stacks["retry;attempt"] == pytest.approx(5.0)
        assert stacks["retry"] == pytest.approx(15.0)

    def test_tightest_enclosing_parent_wins(self):
        trace = Trace()
        trace.record("phase", 0, 1000, {"cpu": 100.0})
        trace.record("phase", 100, 500, {"cpu": 40.0}, parent="phase")
        trace.record("op", 200, 300, {"cpu": 10.0}, parent="phase")
        stacks = fold_stacks(trace)
        assert stacks["phase;phase;op"] == pytest.approx(10.0)

    def test_unresolvable_parent_falls_back(self):
        trace = Trace()
        trace.record("root", 0, 100, {"cpu": 10.0})
        trace.record("orphan", 500, 600, {"cpu": 5.0}, parent="ghost")
        stacks = fold_stacks(trace)
        assert stacks["orphan"] == pytest.approx(5.0)


class TestProfile:
    def test_attribution_total_equals_ledger_total(self):
        trace = nested_trace()
        profile = Profile.from_runs([FakeRun(trace=trace)])
        assert profile.total_ns == pytest.approx(trace.ledger_total_ns())
        # category sums over ROOT spans only — the kernel child's cpu
        # is already inside execute's window
        assert profile.categories == {
            "startup": pytest.approx(100.0),
            "cpu": pytest.approx(150.0),
            "mem_access": pytest.approx(50.0),
        }
        assert sum(profile.categories.values()) == \
            pytest.approx(profile.total_ns)

    def test_stacks_telescope_to_total(self):
        profile = Profile.from_runs(
            [FakeRun(trace=nested_trace()), FakeRun(trace=nested_trace())])
        assert profile.trials == 2
        assert sum(profile.stacks.values()) == pytest.approx(profile.total_ns)

    def test_from_history_folds_every_plan(self):
        history = [(None, [FakeRun(trace=nested_trace())]),
                   (None, [FakeRun(trace=nested_trace())])]
        assert Profile.from_history(history).trials == 2

    def test_render_table_has_total_row(self):
        profile = Profile.from_runs([FakeRun(trace=nested_trace())])
        table = profile.render_table()
        assert "TOTAL" in table
        assert "100.0%" in table

    def test_render_collapsed_sorted_and_skips_zero(self):
        profile = Profile.from_runs([FakeRun(trace=nested_trace())])
        profile.stacks["zero"] = 0.0
        lines = profile.render_collapsed().splitlines()
        assert lines == sorted(lines)
        assert not any(line.startswith("zero") for line in lines)

    def test_to_json_round_trip(self):
        profile = Profile.from_runs([FakeRun(trace=nested_trace())])
        payload = json.loads(profile.to_json())
        assert payload["trials"] == 1
        assert payload["total_ns"] == pytest.approx(300.0)
        assert list(payload["categories"]) == sorted(payload["categories"])
