"""Tests for the §VI execution units: SGX enclaves and confidential
containers."""

import statistics

import pytest

from repro.core.launcher import FunctionLauncher
from repro.errors import TeeError
from repro.tee import (
    ConfidentialContainerPlatform,
    SgxEnclavePlatform,
    platform_by_name,
)
from repro.workloads.faas import workload_by_name


def ratio(platform_name, workload_name, lang="lua", trials=6, seed=4):
    platform = platform_by_name(platform_name, seed=seed)
    secure = platform.create_vm()
    secure.boot()
    normal = platform.create_vm()
    normal.config.secure = False
    normal.boot()
    body = FunctionLauncher.for_language(lang).launch(
        workload_by_name(workload_name)
    )
    s = statistics.fmean(
        secure.run(body, name=workload_name, trial=i).elapsed_ns
        for i in range(trials)
    )
    n = statistics.fmean(
        normal.run(body, name=workload_name, trial=i).elapsed_ns
        for i in range(trials)
    )
    return s / n


class TestSgxPlatform:
    def test_registered(self):
        assert isinstance(platform_by_name("sgx"), SgxEnclavePlatform)

    def test_info(self):
        info = SgxEnclavePlatform().info()
        assert "enclave" in info.display_name.lower()
        assert not info.is_simulated

    def test_tiny_epc_rejected(self):
        with pytest.raises(TeeError):
            SgxEnclavePlatform(epc_bytes=1024)

    def test_every_syscall_pays_an_ocall(self):
        """The first-generation tax: regular syscalls exit the enclave."""
        profile = SgxEnclavePlatform().secure_profile()
        assert profile.syscall_transition_ns > 0
        # ... unlike second-generation VM TEEs
        assert platform_by_name("tdx").secure_profile().syscall_transition_ns == 0

    def test_syscall_heavy_work_suffers_most(self):
        """Classic SGX result: logging >> compute overhead."""
        assert ratio("sgx", "logging") > 3.0
        assert ratio("sgx", "cpustress") < 1.4

    def test_sgx_worse_than_tdx_on_syscalls(self):
        """Second-generation TEEs fixed the syscall path (§I)."""
        assert ratio("sgx", "logging") > 2.5 * ratio("tdx", "logging")

    def test_memory_pressure_beyond_epc(self):
        assert ratio("sgx", "memstress") > 1.5

    def test_enclave_creation_charged_as_startup(self):
        platform = SgxEnclavePlatform(seed=1)
        unit = platform.create_vm()
        unit.boot()
        body = FunctionLauncher.for_language("lua").launch(
            workload_by_name("factors")
        )
        result = unit.run(body, name="factors")
        # the ~180 ms enclave create+measure is excluded from timing
        assert result.total_ns - result.elapsed_ns > 100e6


class TestConfidentialContainers:
    def test_registered(self):
        assert isinstance(platform_by_name("coco"),
                          ConfidentialContainerPlatform)

    def test_image_metadata(self):
        platform = ConfidentialContainerPlatform(seed=1)
        assert platform.image.size_bytes > 0
        assert platform.image.digest.startswith("sha256:")

    def test_bad_image_size_rejected(self):
        with pytest.raises(TeeError):
            ConfidentialContainerPlatform(image_size_bytes=0)

    def test_cold_start_unpractical(self):
        """§V: confidential-container serverless has 'unpractical'
        overheads — dominated by sandbox cold start."""
        platform = ConfidentialContainerPlatform()
        confidential = platform.cold_start_ns(secure=True)
        plain = platform.cold_start_ns(secure=False)
        assert confidential > 20 * plain
        assert confidential > 1e9   # seconds, not milliseconds

    def test_steady_state_io_worse_than_plain_tdx_vm(self):
        """virtio-fs + agent hop: container I/O costs more than the
        same workload in a plain TDX VM."""
        assert ratio("coco", "iostress") > ratio("tdx", "iostress") * 1.3

    def test_steady_state_compute_near_tdx(self):
        assert abs(ratio("coco", "cpustress") - ratio("tdx", "cpustress")) < 0.12

    def test_normal_variant_is_plain_container(self):
        profile = ConfidentialContainerPlatform().normal_profile()
        assert profile.name == "container"
        assert not profile.mem_encrypted
        assert profile.startup_ns < 0.5e9
