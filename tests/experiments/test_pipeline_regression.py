"""Pipeline-migration regression tests.

Pins one figure harness's exact output, asserts every harness really
went through the unified runner (no hand-rolled trial loops left),
and checks the trace invariants on harness-produced results.
"""

import re
from pathlib import Path

import pytest

from repro.core.runner import TrialRunner
from repro.experiments.fig5_attestation import run_fig5
from repro.experiments.report import trace_payload

EXPERIMENTS_DIR = (Path(__file__).resolve().parents[2]
                   / "src" / "repro" / "experiments")

HARNESSES = sorted(EXPERIMENTS_DIR.glob("fig*.py")) + [
    EXPERIMENTS_DIR / "dbms_table.py",
]


class TestNoHandRolledLoops:
    @pytest.mark.parametrize("path", HARNESSES, ids=lambda p: p.name)
    def test_harness_has_no_trial_loop(self, path):
        """Every harness runs trials through the pipeline, not a loop."""
        source = path.read_text()
        assert not re.search(r"for\s+\w+\s+in\s+range\(trials\)", source), (
            f"{path.name} still hand-rolls its trial loop"
        )

    @pytest.mark.parametrize("path", HARNESSES, ids=lambda p: p.name)
    def test_harness_uses_runner(self, path):
        source = path.read_text()
        assert "TrialRunner" in source


class TestFig5Regression:
    """Pin fig5's output: same seed => exactly the same numbers."""

    def test_deterministic_across_runs(self):
        a = run_fig5(seed=11, trials=2)
        b = run_fig5(seed=11, trials=2)
        assert a.latencies_ns == b.latencies_ns
        assert a.tdx_check_network_fraction == b.tdx_check_network_fraction

    def test_serial_vs_parallel_same_figure(self):
        serial = run_fig5(seed=11, trials=2, runner=TrialRunner())
        parallel = run_fig5(seed=11, trials=2, runner=TrialRunner(jobs=2))
        assert serial.latencies_ns == parallel.latencies_ns

    def test_shape_holds(self):
        fig5 = run_fig5(seed=11, trials=2)
        lat = fig5.latencies_ns
        assert lat["sev-snp attest"] < lat["tdx attest"]
        assert lat["sev-snp check"] < lat["tdx check"]
        assert 0.5 < fig5.tdx_check_network_fraction < 1.0


class TestHarnessTraces:
    def test_every_result_traced_and_consistent(self):
        runner = TrialRunner()
        run_fig5(seed=3, trials=1, runner=runner)
        assert runner.history
        for _, results in runner.history:
            for result in results:
                assert len(result.trace) > 0
                assert (result.trace.ledger_total_ns()
                        == pytest.approx(result.ledger.total(), rel=1e-9))

    def test_trace_payload_shape(self):
        runner = TrialRunner()
        run_fig5(seed=3, trials=1, runner=runner)
        records = trace_payload(runner.history)
        assert len(records) == 2   # tdx + sev-snp, one trial each
        for record in records:
            assert record["spec"]["kind"] == "attestation"
            names = {span["name"] for span in record["trace"]}
            assert {"boot", "launch", "execute",
                    "attest", "check"} <= names

