"""Intel SGX enclave platform (first-generation, process-level TEE).

§VI lists "support [for] native processes (for Intel SGX enclaves)"
as planned work, and §I contrasts first-generation TEEs ("complex
implementation requirements ... deep modifications") with the
VM-level TEEs ConfBench benches.  This platform models SGX's
process-level execution unit so those comparisons can actually run:

- an **enclave** instead of a VM — creation is cheap (no guest OS
  boot) but every syscall must leave the enclave through an **OCALL**
  (enclave exit + re-entry), the classic SGX tax;
- the **EPC** (Enclave Page Cache) is small; working sets beyond it
  page through costly EWB/ELDU encrypted swaps;
- memory is encrypted + integrity-protected by the MEE, with a larger
  per-line cost than second-generation engines.

The expected (and asserted) result mirrors the literature: syscall-
and memory-heavy workloads suffer far more in SGX enclaves than in
TDX/SNP confidential VMs, while pure compute stays near-native.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TeeError
from repro.guestos.context import CostProfile
from repro.hw.machine import Machine, xeon_gold_5515
from repro.tee.base import PlatformInfo, TeePlatform

#: EPC size of classic SGX parts (the paper-era 93.5 MiB usable).
EPC_BYTES = 93 * 1024 * 1024

#: One enclave exit + re-entry (EEXIT/EENTER + flushes), ~8000 cycles.
OCALL_COST_NS = 2_600.0

#: Encrypted EPC page swap (EWB + ELDU pair).
EPC_SWAP_PAGE_NS = 11_000.0


@dataclass
class EnclaveMetrics:
    """Counters specific to enclave execution."""

    ecalls: int = 0
    ocalls: int = 0
    epc_swaps: int = 0


class SgxEnclavePlatform(TeePlatform):
    """Process-level SGX enclaves on the Xeon host.

    The "VM" this platform creates is really an enclave-hosting
    process: the same execution engine applies, but the cost profile
    is first-generation — brutal syscall path, EPC-bound memory.
    """

    name = "sgx"

    def __init__(self, seed: int = 0, epc_bytes: int = EPC_BYTES) -> None:
        super().__init__(seed)
        if epc_bytes < 16 * 1024 * 1024:
            raise TeeError(f"EPC too small to be useful: {epc_bytes}")
        self.epc_bytes = epc_bytes
        self.metrics = EnclaveMetrics()

    def info(self) -> PlatformInfo:
        return PlatformInfo(
            name=self.name,
            display_name="Intel SGX (enclave)",
            vendor="intel",
            is_simulated=False,
            supports_attestation=True,   # EPID/DCAP — not modelled here
            supports_perf_counters=True,
            description=(
                f"process-level enclaves, EPC "
                f"{self.epc_bytes // (1024 * 1024)} MiB, OCALL-mediated "
                "syscalls"
            ),
        )

    def build_machine(self) -> Machine:
        machine = xeon_gold_5515()
        # enclave working sets beyond the EPC page expensively: model
        # as a much smaller effective cache plus swap-heavy misses.
        machine.cpu.cache.size_bytes = min(
            machine.cpu.cache.size_bytes, self.epc_bytes // 4
        )
        return machine

    def secure_profile(self) -> CostProfile:
        return CostProfile(
            name="sgx",
            cpu_multiplier=1.02,           # in-enclave compute is fast
            mem_alloc_multiplier=1.9,      # EADD/EAUG + EPC pressure
            mem_access_multiplier=1.25,
            io_read_multiplier=1.35,
            io_write_multiplier=1.35,
            syscall_multiplier=1.3,
            mem_encrypted=True,
            mem_integrity=True,
            mem_miss_extra_ns=30.0,        # MEE is costlier than TME-MK
            # the defining first-gen tax: EVERY syscall is an OCALL
            syscall_transition_ns=OCALL_COST_NS,
            halt_transition_ns=2.0 * OCALL_COST_NS,
            io_transition_ns=OCALL_COST_NS,
            io_bounce_per_byte_ns=0.20,    # copy through untrusted buffers
            cache_hit_bonus_probability=0.0,
            cache_hit_bonus=0.0,
            noise_sigma=0.030,
            startup_ns=180_000_000.0,      # enclave create+measure ~180 ms
        )
