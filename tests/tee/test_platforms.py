"""Tests for platform construction and the registry."""

import pytest

from repro.errors import NoSuchPlatformError
from repro.guestos.context import CostProfile
from repro.tee import (
    CcaPlatform,
    NormalVmPlatform,
    SevSnpPlatform,
    TdxPlatform,
    available_platforms,
    platform_by_name,
)
from repro.tee.registry import register_platform, unregister_platform


class TestRegistry:
    def test_all_paper_platforms_available(self):
        names = available_platforms()
        for expected in ("tdx", "sev-snp", "cca", "novm"):
            assert expected in names

    def test_platform_by_name_builds_right_type(self):
        assert isinstance(platform_by_name("tdx"), TdxPlatform)
        assert isinstance(platform_by_name("sev-snp"), SevSnpPlatform)
        assert isinstance(platform_by_name("cca"), CcaPlatform)
        assert isinstance(platform_by_name("novm"), NormalVmPlatform)

    def test_unknown_platform_raises(self):
        with pytest.raises(NoSuchPlatformError):
            platform_by_name("sgx-classic")

    def test_register_and_unregister_custom_platform(self):
        class Custom(NormalVmPlatform):
            name = "custom"

        register_platform("custom", lambda seed: Custom(seed=seed))
        try:
            assert isinstance(platform_by_name("custom"), Custom)
        finally:
            unregister_platform("custom")
        with pytest.raises(NoSuchPlatformError):
            platform_by_name("custom")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_platform("tdx", lambda seed: TdxPlatform(seed=seed))

    def test_unregister_builtin_rejected(self):
        with pytest.raises(ValueError):
            unregister_platform("tdx")


class TestPlatformInfo:
    def test_tdx_info(self):
        info = TdxPlatform().info()
        assert info.supports_attestation
        assert info.supports_perf_counters
        assert not info.is_simulated
        assert info.vendor == "intel"

    def test_sev_info(self):
        info = SevSnpPlatform().info()
        assert info.supports_attestation
        assert info.vendor == "amd"

    def test_cca_info_matches_paper_constraints(self):
        info = CcaPlatform().info()
        assert info.is_simulated
        assert not info.supports_attestation   # FVP lacks hardware support
        assert not info.supports_perf_counters  # perf unusable in realms

    def test_novm_info(self):
        info = NormalVmPlatform().info()
        assert not info.supports_attestation


class TestProfiles:
    def test_every_secure_profile_encrypts_memory(self):
        for name in ("tdx", "sev-snp", "cca"):
            profile = platform_by_name(name).secure_profile()
            assert profile.mem_encrypted, name
            assert profile.mem_integrity, name

    def test_tdx_cpu_beats_sev_cpu(self):
        """Paper: TDX faster with CPU/memory intensive workloads."""
        tdx = TdxPlatform().secure_profile()
        sev = SevSnpPlatform().secure_profile()
        assert tdx.cpu_multiplier < sev.cpu_multiplier
        assert tdx.mem_alloc_multiplier < sev.mem_alloc_multiplier

    def test_sev_io_beats_tdx_io(self):
        """Paper: SEV-SNP faster with I/O tasks (TDX bounce buffers)."""
        tdx = TdxPlatform().secure_profile()
        sev = SevSnpPlatform().secure_profile()
        assert sev.io_bounce_per_byte_ns < tdx.io_bounce_per_byte_ns
        assert sev.io_write_multiplier < tdx.io_write_multiplier

    def test_cca_has_largest_overheads_and_noise(self):
        cca = CcaPlatform().secure_profile()
        for other in (TdxPlatform(), SevSnpPlatform()):
            profile = other.secure_profile()
            assert cca.cpu_multiplier > profile.cpu_multiplier
            assert cca.noise_sigma > profile.noise_sigma

    def test_cca_normal_vm_also_inside_simulator(self):
        cca = CcaPlatform()
        assert cca.normal_profile().simulator_multiplier == pytest.approx(
            cca.secure_profile().simulator_multiplier
        )

    def test_hardware_tees_have_no_simulator_layer(self):
        for name in ("tdx", "sev-snp"):
            assert platform_by_name(name).secure_profile().simulator_multiplier == 1.0

    def test_novm_profiles_are_passthrough(self):
        profile = NormalVmPlatform().secure_profile()
        assert profile.cpu_multiplier == 1.0
        assert profile.halt_transition_ns == 0.0

    def test_regular_syscalls_do_not_exit_on_hw_tees(self):
        """Syscalls stay in-guest on TDX/SNP; only halts and I/O exit."""
        for name in ("tdx", "sev-snp"):
            profile = platform_by_name(name).secure_profile()
            assert profile.syscall_transition_ns == 0.0
            assert profile.halt_transition_ns > 0.0
            assert profile.io_transition_ns > 0.0

    def test_cca_rmm_world_switch_prices(self):
        """A realm halt is two RMI switches, an I/O kick one RSI switch."""
        profile = CcaPlatform().secure_profile()
        assert profile.halt_transition_ns == 18_000.0
        assert profile.io_transition_ns == 7_000.0


class TestDeterminism:
    def test_same_seed_same_run_times(self):
        def run_once():
            platform = platform_by_name("tdx", seed=7)
            vm = platform.create_vm()
            vm.boot()
            return vm.run(lambda k: k.pipe_ping_pong(20), name="pp").elapsed_ns

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_with(seed):
            platform = platform_by_name("tdx", seed=seed)
            vm = platform.create_vm()
            vm.boot()
            return vm.run(lambda k: k.pipe_ping_pong(20), name="pp").elapsed_ns

        assert run_with(1) != run_with(2)


def test_profile_defaults_are_native():
    profile = CostProfile()
    assert profile.cpu_multiplier == 1.0
    assert not profile.mem_encrypted
    assert profile.simulator_multiplier == 1.0
