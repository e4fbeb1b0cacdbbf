"""Tests for continuous monitoring and multi-tenant co-location."""

import statistics

import pytest

from repro.core.host import Host
from repro.core.launcher import FunctionLauncher
from repro.core.timeseries import ContinuousMonitor
from repro.errors import GatewayError, MonitorError, VmError
from repro.sim.ledger import CostCategory
from repro.tee.registry import platform_by_name
from repro.workloads.faas import workload_by_name


def booted_vm(platform="tdx", seed=6):
    vm = platform_by_name(platform, seed=seed).create_vm()
    vm.boot()
    return vm


class TestContinuousMonitor:
    def test_samples_accumulate_over_run(self):
        monitor = ContinuousMonitor(interval_ns=50_000.0)
        vm = booted_vm()
        body = FunctionLauncher.for_language("lua").launch(
            workload_by_name("iostress"), {"file_bytes": 65536, "files": 4}
        )
        vm.run(monitor.wrap(body), name="iostress")
        assert len(monitor.series) > 5

    def test_sample_times_monotone(self):
        monitor = ContinuousMonitor(interval_ns=20_000.0)
        vm = booted_vm()
        vm.run(monitor.wrap(lambda k: k.pipe_ping_pong(50)), name="pp")
        times = [sample.time_ns for sample in monitor.series.samples]
        assert times == sorted(times)

    def test_counters_cumulative(self):
        monitor = ContinuousMonitor(interval_ns=20_000.0)
        vm = booted_vm()
        vm.run(monitor.wrap(lambda k: k.pipe_ping_pong(80)), name="pp")
        transitions = [s.vm_transitions for s in monitor.series.samples]
        assert transitions == sorted(transitions)
        assert transitions[-1] > 0

    def test_deltas_sum_to_counter_growth(self):
        monitor = ContinuousMonitor(interval_ns=30_000.0)
        vm = booted_vm()
        vm.run(monitor.wrap(lambda k: k.pipe_ping_pong(60)), name="pp")
        increments = monitor.series.deltas("vm_transitions")
        first = monitor.series.samples[0].vm_transitions
        last = monitor.series.samples[-1].vm_transitions
        assert sum(increments) == last - first

    def test_category_share_bounded(self):
        monitor = ContinuousMonitor(interval_ns=50_000.0)
        vm = booted_vm()
        body = FunctionLauncher.for_language("lua").launch(
            workload_by_name("iostress"), {"file_bytes": 65536, "files": 2}
        )
        vm.run(monitor.wrap(body), name="iostress")
        shares = monitor.series.category_share(CostCategory.IO_WRITE)
        assert all(0.0 <= share <= 1.0 for share in shares)
        assert shares[-1] > 0.0

    def test_sparkline_renders(self):
        monitor = ContinuousMonitor(interval_ns=20_000.0)
        vm = booted_vm()
        vm.run(monitor.wrap(lambda k: k.pipe_ping_pong(100)), name="pp")
        line = monitor.series.sparkline("instructions", width=20)
        assert 0 < len(line) <= 20

    def test_bad_interval_rejected(self):
        with pytest.raises(MonitorError):
            ContinuousMonitor(interval_ns=0)

    def test_double_attach_rejected(self):
        from repro.guestos.context import ExecContext
        from repro.hw.machine import xeon_gold_5515
        from repro.sim.rng import SimRng

        ctx = ExecContext(machine=xeon_gold_5515(), rng=SimRng(1))
        ContinuousMonitor().attach(ctx)
        with pytest.raises(MonitorError):
            ContinuousMonitor().attach(ctx)

    def test_io_phase_visible_in_series(self):
        """A compute-then-io workload shows its phases."""
        monitor = ContinuousMonitor(interval_ns=100_000.0)

        def body(kernel):
            kernel.ctx.cpu_execute(3_000_000)      # compute phase
            kernel.sys_create("/f")
            kernel.sys_write("/f", b"x" * (1 << 20))   # io phase
            return None

        vm = booted_vm()
        vm.run(monitor.wrap(body), name="phased")
        io_share = monitor.series.category_share(CostCategory.IO_WRITE)
        assert io_share[0] == 0.0          # no io yet at the first sample
        assert io_share[-1] > 0.1          # io visible by the end


class TestColocation:
    def make_host(self, vms=4):
        host = Host(name="h", platform=platform_by_name("tdx", seed=6))
        for i in range(vms):
            host.provision_vm(9100 + i, secure=True)
        return host

    def test_factor_is_one_below_core_count(self):
        host = self.make_host()
        cores = host.platform.build_machine().spec.cores
        assert host.contention_factor(1) == 1.0
        assert host.contention_factor(cores) == 1.0

    def test_factor_grows_with_oversubscription(self):
        host = self.make_host()
        cores = host.platform.build_machine().spec.cores
        f2 = host.contention_factor(2 * cores)
        f4 = host.contention_factor(4 * cores)
        assert 1.0 < f2 < f4

    def test_zero_tenants_rejected(self):
        with pytest.raises(GatewayError):
            self.make_host().contention_factor(0)

    def test_vm_rejects_bad_contention(self):
        vm = booted_vm()
        with pytest.raises(VmError):
            vm.run(lambda k: None, contention=0.5)

    def test_route_colocated_prices_batch(self):
        host = self.make_host(vms=4)
        body = FunctionLauncher.for_language("lua").launch(
            workload_by_name("factors")
        )
        requests = [(9100 + i, body, "factors") for i in range(4)]
        results = host.route_colocated(requests)
        assert len(results) == 4
        assert host.requests_routed == 4

    def test_oversubscribed_batch_slower_per_request(self):
        """The §VI multi-tenant effect: oversubscription costs."""
        host = Host(name="h", platform=platform_by_name("tdx", seed=6))
        cores = host.platform.build_machine().spec.cores
        n = 2 * cores
        for i in range(n):
            host.provision_vm(9100 + i, secure=True)
        body = FunctionLauncher.for_language("lua").launch(
            workload_by_name("cpustress")
        )
        alone = host.route_colocated([(9100, body, "cpustress")])
        packed = host.route_colocated(
            [(9100 + i, body, "cpustress") for i in range(n)]
        )
        alone_time = alone[0].elapsed_ns
        packed_mean = statistics.fmean(r.elapsed_ns for r in packed)
        assert packed_mean > alone_time * 1.3
