"""The ConfBench facade: uniform keyword-only signatures + telemetry."""

import warnings

import pytest

from repro.core.api import ConfBench
from repro.core.config import GatewayConfig, PlatformEntry
from repro.errors import GatewayError


def small_config(default_trials=2):
    return GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9700),
        PlatformEntry(platform="novm", host="xeon", base_port=9800),
    ], default_trials=default_trials)


@pytest.fixture
def bench():
    bench = ConfBench(config=small_config())
    bench.upload("cpustress")
    return bench


class TestUniformTrialsSemantics:
    def test_invoke_trials_none_runs_config_default(self, bench):
        records = bench.invoke("cpustress", "lua")
        assert len(records) == 2

    def test_invoke_explicit_trials(self, bench):
        assert len(bench.invoke("cpustress", "lua", trials=3)) == 3

    def test_run_classic_trials_none_runs_config_default(self, bench):
        records = bench.run_classic("probe", lambda kernel: kernel.sys_getpid())
        assert len(records) == 2

    def test_invalid_trials_rejected(self, bench):
        with pytest.raises(GatewayError, match="trials must be >= 1"):
            bench.invoke("cpustress", "lua", trials=0)

    def test_measure_overhead_keywords(self, bench):
        summary = bench.measure_overhead("cpustress", "lua", trials=1)
        assert summary.ratio > 0


class TestLegacyPositionalShim:
    """The positional forms the removed shim accepted are TypeErrors."""

    def test_keyword_calls_do_not_warn(self, bench):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bench.invoke("cpustress", "lua", platform="tdx", trials=1)

    def test_too_many_positionals_is_type_error(self, bench):
        with pytest.raises(TypeError, match="positional argument"):
            bench.invoke("cpustress", "lua", "tdx", True, None, 1)

    def test_positional_keyword_conflict_is_type_error(self, bench):
        with pytest.raises(TypeError, match="positional argument"):
            bench.invoke("cpustress", "lua", "tdx", platform="sev-snp")

    @pytest.mark.parametrize("method, positional", [
        ("run_classic", ("probe", lambda kernel: 0, "tdx")),
        ("measure_overhead", ("cpustress", "lua", "tdx")),
        ("measure_classic_overhead", ("probe", lambda kernel: 0, "tdx")),
    ])
    def test_every_method_is_keyword_only(self, bench, method, positional):
        with pytest.raises(TypeError, match="positional argument"):
            getattr(bench, method)(*positional)


class TestFacadeTelemetry:
    def test_metrics_snapshot_after_invocations(self, bench):
        bench.invoke("cpustress", "lua", trials=2)
        snapshot = bench.metrics()
        assert snapshot["counters"]["run.tdx.secure.trials"] == 2
        assert snapshot == bench.gateway.metrics.snapshot()

    def test_trace_covers_every_run(self, bench):
        bench.invoke("cpustress", "lua", trials=2)
        bench.invoke("cpustress", "lua", secure=False, trials=1)
        exporter = bench.trace()
        assert len(exporter) == 3
        labels = [record.label for record in exporter.records]
        assert "cpustress@tdx/secure#0" in labels
        assert "cpustress@tdx/normal#0" in labels

    def test_profile_total_matches_run_ledgers(self, bench):
        bench.invoke("cpustress", "lua", trials=2)
        profile = bench.profile()
        assert profile.trials == 2
        assert profile.total_ns == pytest.approx(
            sum(run.ledger.total() for run in bench.gateway.run_log))

    def test_classic_runs_feed_telemetry_too(self, bench):
        bench.run_classic("probe", lambda kernel: kernel.sys_getpid(),
                          trials=1)
        assert bench.profile().trials == 1
        assert bench.metrics()["counters"]["run.tdx.secure.trials"] == 1
