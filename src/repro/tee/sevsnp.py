"""AMD SEV-SNP platform simulator.

The one place SEV-SNP is priced is :meth:`SevSnpPlatform.secure_profile`,
the :class:`~repro.guestos.context.CostProfile` the guest executor
charges every op from (§II's mechanisms, as costs):

- **RMP-checked** private memory: the Reverse Map Table lookup on
  every nested-page-table walk shows up as memory-access and
  cache-miss overhead, not as per-page state (a default 4 GiB guest
  would need a million entries per boot);
- a VMEXIT/VMRUN pair on every halt/wake and virtio kick;
- **shared (unencrypted) SWIOTLB pages** for I/O, a cheaper copy than
  TDX's bounce buffers.

:class:`AmdSecureProcessor` keeps only what the attestation path
reads: the chip id and the launch measurement it binds into a report
request (:class:`SnpReportRequest`, carrying the requesting
:class:`Vmpl`), plus the firmware-mailbox cost the report generator
charges.  Requests go mailbox style, with no external network — the
reason SNP attestation is fast in the paper's Fig. 5.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.errors import TeeError
from repro.guestos.context import CostProfile
from repro.hw.machine import Machine, epyc_9124
from repro.tee.base import PlatformInfo, TeePlatform


class Vmpl(enum.IntEnum):
    """VM Privilege Levels — lower number, higher privilege."""

    VMPL0 = 0
    VMPL1 = 1
    VMPL2 = 2
    VMPL3 = 3


@dataclass
class SnpReportRequest:
    """Guest-supplied inputs for an attestation report."""

    report_data: bytes            # 64 user bytes bound into the report
    vmpl: Vmpl = Vmpl.VMPL0


@dataclass
class AmdSecureProcessor:
    """The AMD-SP coprocessor: firmware mailbox for report requests.

    The actual signing happens in :mod:`repro.attest.snp_report`; this
    class models the mailbox round-trip cost and measurement capture.
    """

    chip_id: str = "epyc-9124-chip-0"
    MAILBOX_COST_NS: float = 3_500_000.0     # firmware call, ~3.5 ms

    def measurement_for(self, guest_identity: str) -> bytes:
        """Launch digest of a guest (SHA-384 of its identity here)."""
        return hashlib.sha384(f"snp-launch:{guest_identity}".encode()).digest()

    def request_report(self, request: SnpReportRequest,
                       guest_identity: str) -> dict[str, bytes | str | int]:
        """Produce the unsigned report body for the attest stack."""
        if len(request.report_data) > 64:
            raise TeeError(
                f"report_data must be <= 64 bytes, got {len(request.report_data)}"
            )
        return {
            "measurement": self.measurement_for(guest_identity),
            "report_data": request.report_data.ljust(64, b"\0"),
            "vmpl": int(request.vmpl),
            "chip_id": self.chip_id,
        }


class SevSnpPlatform(TeePlatform):
    """AMD SEV-SNP on the paper's EPYC 9124 host."""

    name = "sev-snp"

    def info(self) -> PlatformInfo:
        return PlatformInfo(
            name=self.name,
            display_name="AMD SEV-SNP",
            vendor="amd",
            is_simulated=False,
            supports_attestation=True,
            supports_perf_counters=True,
            description="SNP guests with RMP integrity and AMD-SP attestation",
        )

    def build_machine(self) -> Machine:
        return epyc_9124()

    def secure_profile(self) -> CostProfile:
        """SEV-SNP guest cost profile.

        Calibration notes: slightly costlier CPU/memory than TDX (RMP
        checks on nested walks, no TD-style cache partitioning), but
        cheaper I/O — SNP guests use conventional SWIOTLB shared pages
        with less copy overhead than TDX's bounce buffers, matching
        the paper's "SEV-SNP is faster with I/O tasks".
        """
        return CostProfile(
            name="sev-snp",
            cpu_multiplier=1.035,
            mem_alloc_multiplier=1.075,
            mem_access_multiplier=1.055,
            io_read_multiplier=1.05,
            io_write_multiplier=1.05,
            syscall_multiplier=1.16,
            mem_encrypted=True,
            mem_integrity=True,
            mem_miss_extra_ns=12.0,
            syscall_transition_ns=0.0,
            halt_transition_ns=2.0 * 3_300.0,   # VMEXIT/VMRUN pair
            io_transition_ns=3_300.0,
            io_bounce_per_byte_ns=0.03,
            cache_hit_bonus_probability=0.15,
            cache_hit_bonus=0.004,
            noise_sigma=0.024,
            startup_ns=2_100_000.0,
        )
