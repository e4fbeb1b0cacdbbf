"""Tests for VM lifecycle and the execution engine."""

import pytest

from repro.errors import VmError
from repro.sim.ledger import CostCategory
from repro.tee import VmState, platform_by_name
from repro.tee.base import VmConfig


def booted_vm(platform_name="tdx", secure=True, seed=0):
    platform = platform_by_name(platform_name, seed=seed)
    vm = platform.create_vm(VmConfig(secure=secure))
    vm.boot()
    return vm


class TestVmConfig:
    def test_defaults(self):
        config = VmConfig()
        assert config.secure
        assert config.vcpus >= 1

    def test_rejects_zero_vcpus(self):
        with pytest.raises(VmError):
            VmConfig(vcpus=0)

    def test_rejects_tiny_memory(self):
        with pytest.raises(VmError):
            VmConfig(memory_mib=64)


class TestLifecycle:
    def test_created_then_booted(self):
        platform = platform_by_name("tdx")
        vm = platform.create_vm()
        assert vm.state is VmState.CREATED
        vm.boot()
        assert vm.state is VmState.BOOTED

    def test_double_boot_rejected(self):
        vm = booted_vm()
        with pytest.raises(VmError):
            vm.boot()

    def test_run_requires_boot(self):
        platform = platform_by_name("tdx")
        vm = platform.create_vm()
        with pytest.raises(VmError):
            vm.run(lambda k: None)

    def test_destroy_prevents_runs(self):
        vm = booted_vm()
        vm.destroy()
        assert vm.state is VmState.DESTROYED
        with pytest.raises(VmError):
            vm.run(lambda k: None)

    def test_double_destroy_rejected(self):
        vm = booted_vm()
        vm.destroy()
        with pytest.raises(VmError):
            vm.destroy()

    def test_secure_boot_slower_than_normal(self):
        """Launch measurement makes confidential boots slower."""
        platform = platform_by_name("tdx")
        secure = platform.create_vm(VmConfig(secure=True))
        normal = platform.create_vm(VmConfig(secure=False))
        assert secure.boot() > normal.boot()

    def test_bigger_secure_vm_boots_slower(self):
        platform = platform_by_name("tdx")
        small = platform.create_vm(VmConfig(secure=True, memory_mib=1024))
        large = platform.create_vm(VmConfig(secure=True, memory_mib=8192))
        assert large.boot() > small.boot()

    def test_vm_ids_unique_per_platform(self):
        platform = platform_by_name("tdx")
        assert platform.create_vm().vm_id != platform.create_vm().vm_id


class TestRunResults:
    def test_output_passed_through(self):
        vm = booted_vm()
        result = vm.run(lambda k: {"answer": 42}, name="probe")
        assert result.output == {"answer": 42}
        assert result.workload == "probe"
        assert result.platform == "tdx"
        assert result.secure

    def test_elapsed_positive_for_real_work(self):
        vm = booted_vm()
        result = vm.run(lambda k: k.pipe_ping_pong(5))
        assert result.elapsed_ns > 0
        assert result.elapsed_ms == pytest.approx(result.elapsed_ns / 1e6)

    def test_counters_delta_isolated_per_run(self):
        vm = booted_vm()
        first = vm.run(lambda k: k.pipe_ping_pong(5))
        second = vm.run(lambda k: k.pipe_ping_pong(5))
        assert first.counters.context_switches == 10
        assert second.counters.context_switches == 10
        assert vm.counters.context_switches == 20

    def test_ledger_breakdown_present(self):
        vm = booted_vm()
        result = vm.run(lambda k: k.ctx.mem_alloc(1 << 20))
        assert result.ledger.get(CostCategory.MEM_ALLOC) > 0

    def test_to_dict_is_json_shaped(self):
        import json

        vm = booted_vm()
        result = vm.run(lambda k: "ok", name="probe")
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["workload"] == "probe"
        assert "perf" in payload
        assert "cost_breakdown" in payload

    def test_run_trials_count_and_independence(self):
        vm = booted_vm()
        results = [vm.run(lambda k: k.pipe_ping_pong(10), trial=trial)
                   for trial in range(10)]
        assert [r.trial for r in results] == list(range(10))
        times = {r.elapsed_ns for r in results}
        assert len(times) > 1   # noise makes trials differ

    def test_secure_flag_false_on_normal_vm(self):
        vm = booted_vm(secure=False)
        result = vm.run(lambda k: None)
        assert not result.secure


class TestSecureVsNormal:
    def test_secure_slower_on_transition_heavy_work(self):
        secure = booted_vm("tdx", secure=True, seed=1)
        normal = booted_vm("tdx", secure=False, seed=1)
        s = secure.run(lambda k: k.pipe_ping_pong(50), name="pp")
        n = normal.run(lambda k: k.pipe_ping_pong(50), name="pp")
        assert s.elapsed_ns > n.elapsed_ns
        assert s.counters.vm_transitions > 0
        assert n.counters.vm_transitions == 0

    def test_cca_normal_vm_still_simulated_slow(self):
        """Both CCA VM kinds sit inside FVP: slow in absolute terms."""
        cca_normal = booted_vm("cca", secure=False, seed=1)
        bare_normal = booted_vm("novm", secure=False, seed=1)
        c = cca_normal.run(lambda k: k.pipe_ping_pong(20), name="pp")
        b = bare_normal.run(lambda k: k.pipe_ping_pong(20), name="pp")
        assert c.elapsed_ns > b.elapsed_ns * 3
