"""Tests for the gateway, pools, hosts, launchers, monitor, results."""

import pytest

from repro.core import (
    ConfBench,
    FunctionLauncher,
    Gateway,
    Host,
    InvocationRequest,
    LoadBalancingPolicy,
    PerfMonitor,
    TeePool,
)
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.launcher import native_launcher
from repro.core.results import (
    InvocationRecord,
    five_number_summary,
    percentile,
    percentile_stack,
    summarize_ratio,
)
from repro.errors import (
    GatewayError,
    NoSuchFunctionError,
    PoolExhaustedError,
)
from repro.tee.registry import platform_by_name


def small_config(seed=0):
    return GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9100, seed=seed),
        PlatformEntry(platform="novm", host="xeon", base_port=9400, seed=seed),
    ], default_trials=2)


class TestHost:
    def test_provision_and_route(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        host.provision_vm(9100, secure=True)
        result = host.route(9100, lambda k: "ok")
        assert result.output == "ok"
        assert host.requests_routed == 1

    def test_duplicate_port_rejected(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        host.provision_vm(9100, secure=True)
        with pytest.raises(GatewayError):
            host.provision_vm(9100, secure=False)

    def test_unknown_port(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        with pytest.raises(GatewayError):
            host.vm_for_port(9999)

    def test_secure_flag_respected(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        secure = host.provision_vm(9100, secure=True)
        normal = host.provision_vm(9101, secure=False)
        assert secure.secure and not normal.secure

    def test_vms_in_port_order(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        host.provision_vm(9101, secure=False)
        host.provision_vm(9100, secure=True)
        assert [vm.secure for vm in host.vms()] == [True, False]


class TestPool:
    def make_pool(self, policy, workers=3):
        platform = platform_by_name("novm")
        pool = TeePool(platform="novm", secure=False, policy=policy)
        for i in range(workers):
            vm = platform.create_vm()
            vm.config.secure = False
            vm.boot()
            pool.add_worker(vm, 9400 + i)
        return pool

    def test_empty_pool_raises(self):
        pool = TeePool(platform="tdx", secure=True)
        with pytest.raises(PoolExhaustedError):
            pool.pick()

    def test_round_robin_cycles(self):
        pool = self.make_pool(LoadBalancingPolicy.ROUND_ROBIN)
        picks = [pool.pick().port for _ in range(6)]
        assert picks == [9400, 9401, 9402, 9400, 9401, 9402]

    def test_least_loaded_balances(self):
        pool = self.make_pool(LoadBalancingPolicy.LEAST_LOADED)
        for _ in range(9):
            worker = pool.pick()
            pool.run_on(worker, lambda k: None, name="x", trial=0)
        served = [worker.served for worker in pool.workers]
        assert served == [3, 3, 3]

    def test_random_policy_uses_all_eventually(self):
        pool = self.make_pool(LoadBalancingPolicy.RANDOM)
        ports = {pool.pick().port for _ in range(50)}
        assert ports == {9400, 9401, 9402}

    def test_run_on_tracks_served(self):
        pool = self.make_pool(LoadBalancingPolicy.ROUND_ROBIN, workers=1)
        worker = pool.pick()
        pool.run_on(worker, lambda k: 1, name="x", trial=0)
        assert worker.served == 1
        assert worker.inflight == 0

    def test_policy_parse(self):
        assert LoadBalancingPolicy.parse("least-loaded") is \
            LoadBalancingPolicy.LEAST_LOADED
        with pytest.raises(ValueError):
            LoadBalancingPolicy.parse("chaotic")


class TestGateway:
    def test_invoke_returns_trial_records(self):
        gateway = Gateway(small_config())
        gateway.upload("factors")
        records = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx", trials=3,
        ))
        assert len(records) == 3
        assert [r.trial for r in records] == [0, 1, 2]
        assert all(r.platform == "tdx" and r.secure for r in records)
        assert records[0].output["result"][0] == 1

    def test_default_trials_from_config(self):
        gateway = Gateway(small_config())
        gateway.upload("factors")
        records = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx",
        ))
        assert len(records) == 2   # small_config sets 2

    def test_perf_piggybacked(self):
        gateway = Gateway(small_config())
        gateway.upload("factors")
        record = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx", trials=1,
        ))[0]
        assert record.perf["instructions"] > 0
        assert "cpu" in record.cost_breakdown

    def test_unuploaded_function_rejected(self):
        gateway = Gateway(small_config())
        with pytest.raises(NoSuchFunctionError):
            gateway.invoke(InvocationRequest(
                function="factors", language="lua",
            ))

    def test_language_required_for_faas(self):
        gateway = Gateway(small_config())
        gateway.upload("factors")
        with pytest.raises(GatewayError):
            gateway.invoke(InvocationRequest(function="factors"))

    def test_unconfigured_platform_rejected(self):
        gateway = Gateway(small_config())
        gateway.upload("factors")
        with pytest.raises(GatewayError):
            gateway.invoke(InvocationRequest(
                function="factors", language="lua", platform="cca",
            ))

    def test_normal_vm_dispatch(self):
        gateway = Gateway(small_config())
        gateway.upload("factors")
        record = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx",
            secure=False, trials=1,
        ))[0]
        assert not record.secure

    def test_invoke_classic_runs_classic_workload(self):
        gateway = Gateway(small_config())
        records = gateway.invoke_classic(
            "probe", lambda k: k.sys_getpid(), platform="tdx", secure=True,
            trials=2,
        )
        assert len(records) == 2
        assert records[0].language is None
        assert records[0].output == 1

    def test_platform_listing(self):
        gateway = Gateway(small_config())
        listing = gateway.platforms()
        assert listing[0]["name"] == "tdx"
        assert listing[0]["supports_attestation"] is True


class TestLauncher:
    def test_launch_excludes_bootstrap_from_timing(self):
        from repro.workloads.faas import workload_by_name

        platform = platform_by_name("novm")
        vm = platform.create_vm()
        vm.boot()
        body = FunctionLauncher.for_language("ruby").launch(
            workload_by_name("factors"), {"n": 100}
        )
        result = vm.run(body, name="factors")
        # ruby bootstrap is ~60 ms; elapsed must exclude it entirely
        assert result.elapsed_ns < 50e6
        assert result.total_ns > 55e6
        assert result.output["language"] == "ruby"

    def test_native_launcher_passes_kernel(self):
        platform = platform_by_name("novm")
        vm = platform.create_vm()
        vm.boot()
        result = vm.run(native_launcher(lambda k, x: x * 2, 21))
        assert result.output == 42


class TestMonitor:
    def test_hardware_platform_reports_perf_stat(self):
        platform = platform_by_name("tdx")
        vm = platform.create_vm()
        vm.boot()
        run = vm.run(lambda k: k.sys_getpid())
        report = PerfMonitor(platform=platform).collect(run)
        assert report.source == "perf-stat"
        assert "instructions" in report.events

    def test_cca_falls_back_to_custom_script(self):
        platform = platform_by_name("cca")
        vm = platform.create_vm()
        vm.boot()
        run = vm.run(lambda k: k.pipe_ping_pong(3))
        report = PerfMonitor(platform=platform).collect(run)
        assert report.source == "custom-script"
        assert "instructions" not in report.events
        assert "context_switches" in report.events

    def test_custom_script_extension(self):
        platform = platform_by_name("cca")
        vm = platform.create_vm()
        vm.boot()
        monitor = PerfMonitor(platform=platform)
        monitor.register_script("half_time", lambda run: run.elapsed_ns / 2)
        run = vm.run(lambda k: k.sys_getpid())
        report = monitor.collect(run)
        assert report.extra["half_time"] == pytest.approx(run.elapsed_ns / 2)

    def test_duplicate_script_rejected(self):
        from repro.errors import MonitorError

        monitor = PerfMonitor(platform=platform_by_name("cca"))
        monitor.register_script("x", lambda run: 0.0)
        with pytest.raises(MonitorError):
            monitor.register_script("x", lambda run: 1.0)


class TestResults:
    def make_record(self, elapsed, secure=True, trial=0):
        return InvocationRecord(
            function="f", language="lua", platform="tdx", secure=secure,
            trial=trial, elapsed_ns=elapsed, output=None, perf={},
        )

    def test_summarize_ratio(self):
        secure = [self.make_record(200.0), self.make_record(220.0)]
        normal = [self.make_record(100.0, secure=False),
                  self.make_record(110.0, secure=False)]
        summary = summarize_ratio(secure, normal)
        assert summary.ratio == pytest.approx(2.0)
        assert summary.overhead_percent == pytest.approx(100.0)

    def test_summarize_requires_samples(self):
        with pytest.raises(GatewayError):
            summarize_ratio([], [self.make_record(1.0)])

    def test_percentile_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)

    def test_percentile_bounds(self):
        with pytest.raises(GatewayError):
            percentile([1.0], 101)
        with pytest.raises(GatewayError):
            percentile([], 50)

    def test_percentile_stack_keys(self):
        stack = percentile_stack([1.0, 2.0, 3.0])
        assert set(stack) == {"min", "p25", "median", "p95", "max"}
        assert stack["min"] <= stack["median"] <= stack["max"]

    def test_five_number_summary(self):
        summary = five_number_summary(list(map(float, range(1, 101))))
        assert summary["q1"] == pytest.approx(25.75)
        assert summary["median"] == pytest.approx(50.5)
        assert summary["q3"] == pytest.approx(75.25)


class TestConfBenchFacade:
    def test_measure_overhead(self):
        bench = ConfBench(config=small_config(seed=3))
        bench.upload("cpustress")
        summary = bench.measure_overhead("cpustress", language="python",
                                         platform="tdx", trials=4)
        assert 0.8 < summary.ratio < 1.5
        assert len(summary.secure_times) == 4

    def test_classic_overhead(self):
        bench = ConfBench(config=small_config(seed=3))
        summary = bench.measure_classic_overhead(
            "pingpong", lambda k: k.pipe_ping_pong(30), platform="tdx",
            trials=4,
        )
        assert summary.ratio > 1.2   # transition-heavy => visible overhead

    def test_functions_listing(self):
        bench = ConfBench(config=small_config())
        bench.upload("factors")
        bench.upload("ack")
        assert bench.functions() == ["ack", "factors"]


class TestPoolResilience:
    def make_pool(self, workers=3):
        from repro.tee.registry import platform_by_name

        platform = platform_by_name("tdx", seed=2)
        pool = TeePool(platform="tdx", secure=True,
                       policy=LoadBalancingPolicy.ROUND_ROBIN)
        for i in range(workers):
            vm = platform.create_vm()
            vm.boot()
            pool.add_worker(vm, 9100 + i)
        return pool

    def test_failover_on_destroyed_vm(self):
        pool = self.make_pool()
        pool.workers[0].vm.destroy()   # the round-robin first pick
        result = pool.run_resilient(lambda k: "ok", name="x", trial=0)
        assert result.output == "ok"
        assert len(pool.workers) == 2   # dead worker evicted

    def test_all_dead_raises_exhausted(self):
        pool = self.make_pool(workers=2)
        for worker in list(pool.workers):
            worker.vm.destroy()
        with pytest.raises(PoolExhaustedError):
            pool.run_resilient(lambda k: None, name="x", trial=0)

    def test_gateway_survives_vm_failure(self):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="xeon", base_port=9100,
                          vm_count=4),   # 2 secure + 2 normal workers
        ], default_trials=2)
        gateway = Gateway(config)
        gateway.upload("factors")
        # kill the secure TDX worker pool's first VM
        pool = gateway.pools[("tdx", True)]
        pool.workers[0].vm.destroy()
        records = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx", trials=2,
        ))
        assert len(records) == 2

    def test_evict_is_idempotent(self):
        pool = self.make_pool()
        worker = pool.workers[0]
        pool.evict(worker)
        pool.evict(worker)
        assert len(pool.workers) == 2


class TestPoolFailureAccounting:
    """The served/failed split and the cursor-under-eviction fixes."""

    def make_pool(self, workers=3):
        platform = platform_by_name("tdx", seed=2)
        pool = TeePool(platform="tdx", secure=True,
                       policy=LoadBalancingPolicy.ROUND_ROBIN)
        for i in range(workers):
            vm = platform.create_vm()
            vm.boot()
            pool.add_worker(vm, 9100 + i)
        return pool

    def test_failed_run_does_not_count_as_served(self):
        from repro.errors import VmError

        pool = self.make_pool(workers=1)
        worker = pool.workers[0]
        worker.vm.destroy()
        with pytest.raises(VmError):
            pool.run_on(worker, lambda k: None, name="x", trial=0)
        assert worker.served == 0
        assert worker.failed == 1
        assert worker.inflight == 0

    def test_least_loaded_ignores_failed_attempts(self):
        # a worker whose runs keep dying must not look "experienced":
        # with served counting only successes, least-loaded keeps
        # treating it as idle rather than crediting its failures
        pool = self.make_pool(workers=2)
        pool.policy = LoadBalancingPolicy.LEAST_LOADED
        from repro.errors import VmError

        dead, healthy = pool.workers
        dead.vm.destroy()
        for _ in range(3):
            with pytest.raises(VmError):
                pool.run_on(dead, lambda k: None, name="x", trial=0)
        assert (dead.inflight, dead.served) == (0, 0)
        assert pool.pick() in (dead, healthy)  # both still tied at 0 served

    def test_evict_before_cursor_does_not_skip_worker(self):
        pool = self.make_pool(workers=3)
        first = pool.pick()
        assert first.port == 9100          # cursor now at index 1
        pool.evict(pool.workers[0])        # evict the already-served 9100
        # 9101 slid into index 0; the cursor must follow it
        assert pool.pick().port == 9101
        assert pool.pick().port == 9102

    def test_evict_at_cursor_keeps_rotation_fair(self):
        pool = self.make_pool(workers=3)
        pool.pick()                        # 9100; cursor -> 9101
        pool.evict(pool.workers[1])        # evict 9101 (the cursor target)
        # rotation continues with the worker that replaced it
        assert pool.pick().port == 9102
        assert pool.pick().port == 9100

    def test_cursor_stays_bounded(self):
        pool = self.make_pool(workers=3)
        for _ in range(50):
            pool.pick()
        assert 0 <= pool._cursor < len(pool.workers)
        pool.evict(pool.workers[2])
        pool.evict(pool.workers[1])
        assert 0 <= pool._cursor < len(pool.workers)
        assert pool.pick().port == 9100    # sole survivor still reachable


class TestRespawn:
    def test_host_respawn_vm_replaces_dead_vm(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        old = host.provision_vm(9100, secure=True)
        old.destroy()
        replacement = host.respawn_vm(9100)
        assert replacement is not old
        assert replacement.secure is True
        assert host.vm_for_port(9100) is replacement
        assert host.vms_respawned == 1
        assert host.route(9100, lambda k: "alive").output == "alive"

    def test_route_counts_only_validated_requests(self):
        host = Host(name="h", platform=platform_by_name("tdx"))
        host.provision_vm(9100, secure=True)
        with pytest.raises(GatewayError):
            host.route(9999, lambda k: None)
        assert host.requests_routed == 0
        host.route(9100, lambda k: None)
        assert host.requests_routed == 1

    def test_pool_respawn_keeps_worker_count(self):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="xeon", base_port=9100,
                          vm_count=4),
        ], default_trials=2)
        gateway = Gateway(config)
        gateway.upload("factors")
        pool = gateway.pools[("tdx", True)]
        before = len(pool.workers)
        pool.workers[0].vm.destroy()
        records = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx", trials=2,
        ))
        assert len(records) == 2
        assert len(pool.workers) == before   # evicted AND respawned
        assert gateway.hosts["tdx"].vms_respawned == 1


class TestGatewayFaults:
    def test_worker_faults_are_deterministic(self):
        import json

        def run():
            gateway = Gateway(faults="vm-crash=0.4,seed=9")
            gateway.upload("cpustress")
            records = gateway.invoke(InvocationRequest(
                function="cpustress", language="python", platform="tdx",
                trials=5,
            ))
            return json.dumps([r.to_dict() for r in records], sort_keys=True)

        assert run() == run()

    def test_faulted_trials_never_dropped(self):
        gateway = Gateway(faults="vm-crash=0.5,seed=4")
        gateway.upload("cpustress")
        records = gateway.invoke(InvocationRequest(
            function="cpustress", language="python", platform="tdx",
            trials=8,
        ))
        assert len(records) == 8
        assert [r.trial for r in records] == list(range(8))
        # every record is either a real run or explicitly degraded
        for record in records:
            assert record.degraded or record.output is not None

    def test_retried_invocations_surface_attempts(self):
        gateway = Gateway(faults="vm-crash=0.4,seed=9")
        gateway.upload("cpustress")
        records = gateway.invoke(InvocationRequest(
            function="cpustress", language="python", platform="tdx",
            trials=6,
        ))
        assert any(r.attempts > 1 for r in records)
        retried = next(r for r in records if r.attempts > 1 and not r.degraded)
        payload = retried.to_dict()
        assert payload["attempts"] == retried.attempts
        clean = next((r for r in records
                      if r.attempts == 1 and not r.faults_injected), None)
        if clean is not None:
            assert "attempts" not in clean.to_dict()

    def test_without_faults_exhaustion_still_raises(self):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="xeon", base_port=9100,
                          vm_count=2),
        ], default_trials=1)
        gateway = Gateway(config)
        gateway.upload("factors")
        for worker in list(gateway.pools[("tdx", True)].workers):
            worker.vm.destroy()
        gateway.hosts["tdx"].port_map.clear()   # nothing to respawn either
        with pytest.raises(GatewayError):
            gateway.invoke(InvocationRequest(
                function="factors", language="lua", platform="tdx", trials=1,
            ))


class TestAdmissionControl:
    def make_gateway(self, max_pending=None, faults=None):
        gateway = Gateway(config=small_config(), max_pending=max_pending,
                          faults=faults)
        gateway.upload("factors")
        return gateway

    def invoke(self, gateway, trials):
        return gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx",
            trials=trials,
        ))

    def test_bad_max_pending_rejected(self):
        with pytest.raises(GatewayError, match="max_pending"):
            Gateway(config=small_config(), max_pending=0)

    def test_overflow_trials_shed_not_dropped(self):
        gateway = self.make_gateway(max_pending=2)
        records = self.invoke(gateway, trials=4)
        assert len(records) == 4
        assert [r.shed for r in records] == [False, False, True, True]
        for record in records[2:]:
            assert record.attempts == 0   # nothing ran
            assert record.degraded
            assert record.output is None
        for record in records[:2]:
            assert record.output is not None

    def test_shed_flag_serialized_only_when_set(self):
        gateway = self.make_gateway(max_pending=1)
        records = self.invoke(gateway, trials=2)
        assert records[1].to_dict()["shed"] is True
        assert "shed" not in records[0].to_dict()

    def test_admitted_prefix_identical_to_unbounded(self):
        import json

        def dump(records):
            return json.dumps([r.to_dict() for r in records], sort_keys=True)

        unbounded = self.invoke(self.make_gateway(), trials=3)
        bounded = self.invoke(self.make_gateway(max_pending=2), trials=3)
        assert dump(unbounded[:2]) == dump(bounded[:2])

    def test_stats_invariant_holds(self):
        gateway = self.make_gateway(max_pending=2,
                                    faults="vm-crash=0.5,seed=4")
        self.invoke(gateway, trials=5)
        self.invoke(gateway, trials=1)
        stats = gateway.stats()
        assert stats["invocations"] == 2
        assert stats["trials_requested"] == 6
        assert stats["trials_shed"] == 3
        assert stats["trials_requested"] == (stats["trials_completed"]
                                             + stats["trials_degraded"]
                                             + stats["trials_shed"])

    def test_unbounded_gateway_sheds_nothing(self):
        gateway = self.make_gateway()
        self.invoke(gateway, trials=3)
        assert gateway.stats()["trials_shed"] == 0
        assert gateway.stats()["trials_completed"] == 3

    def test_pool_counts_evictions_and_respawns(self):
        gateway = self.make_gateway()
        pool = gateway.pools[("tdx", True)]
        assert (pool.evictions, pool.respawns) == (0, 0)
        pool.workers[0].vm.destroy()
        self.invoke(gateway, trials=2)
        assert pool.evictions == 1
        assert pool.respawns == 1
