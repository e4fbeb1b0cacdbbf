"""Intel TDX platform simulator.

The one place TDX is priced is :meth:`TdxPlatform.secure_profile`, the
:class:`~repro.guestos.context.CostProfile` the guest executor charges
every op from (§II's mechanisms, as costs):

- a **world switch** through the TDX Module in SEAM mode on every
  halt/wake and virtio kick, its price set by the loaded firmware;
- **encrypted, integrity-protected** TD memory;
- **bounce-buffer** copies for I/O leaving the protected space — the
  paper's explanation for TDX's iostress penalty (TDX Connect will
  eventually remove this copy).

:class:`TdxModule` keeps only what a run reads: the loaded firmware
(the paper reports that upgrading to ``TDX_1.5.05.46.698`` improved
runtime up to 10×, so older firmware is available for the ablation
bench), the transition cost that firmware implies, and a count of the
TDCALLs for ``TDG.MR.REPORT``, the one guest-to-module call the
attestation path makes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import TeeError
from repro.guestos.context import CostProfile
from repro.hw.machine import Machine, xeon_gold_5515
from repro.tee.base import PlatformInfo, TeePlatform

#: The firmware the paper's final numbers use.
GOOD_FIRMWARE = "TDX_1.5.05.46.698"
#: A stand-in for the pre-upgrade firmware with the ~10x pathology.
OLD_FIRMWARE = "TDX_1.5.00.00.000"

_FIRMWARE_TRANSITION_FACTOR = {
    GOOD_FIRMWARE: 1.0,
    OLD_FIRMWARE: 10.0,
}


@dataclass
class TdReport:
    """The raw TDREPORT a TD obtains via TDCALL[TDG.MR.REPORT].

    Carries the measurement registers the quote is later built from.
    """

    mrtd: bytes                 # build-time measurement of the TD
    rtmr: tuple[bytes, ...]     # runtime-extendable measurement registers
    report_data: bytes          # caller-chosen 64 bytes bound into the report
    tee_tcb_svn: str            # module/firmware security version


class TdxModule:
    """The TDX Module: SEAM-root intermediary between VMM and TDs.

    Holds the loaded firmware, which sets the price of a world switch,
    and counts the TDCALLs the attestation path makes through it.
    """

    #: Baseline cost of one SEAM transition on good firmware (ns).
    BASE_TRANSITION_NS = 2_200.0

    def __init__(self, firmware: str = GOOD_FIRMWARE) -> None:
        if firmware not in _FIRMWARE_TRANSITION_FACTOR:
            known = ", ".join(sorted(_FIRMWARE_TRANSITION_FACTOR))
            raise TeeError(f"unknown TDX firmware {firmware!r}; known: {known}")
        self.firmware = firmware
        #: TDCALLs made through this module (one per TDREPORT)
        self.tdcalls = 0

    @property
    def transition_cost_ns(self) -> float:
        """Cost of one world switch under the loaded firmware."""
        return self.BASE_TRANSITION_NS * _FIRMWARE_TRANSITION_FACTOR[self.firmware]

    def generate_tdreport(self, report_data: bytes, td_identity: str) -> TdReport:
        """TDG.MR.REPORT: produce a TDREPORT bound to ``report_data``.

        ``report_data`` must be at most 64 bytes (zero-padded), as in
        the real interface.
        """
        if len(report_data) > 64:
            raise TeeError(f"report_data must be <= 64 bytes, got {len(report_data)}")
        self.tdcalls += 1
        padded = report_data.ljust(64, b"\0")
        mrtd = hashlib.sha384(f"mrtd:{td_identity}".encode()).digest()
        rtmr = tuple(
            hashlib.sha384(f"rtmr{i}:{td_identity}".encode()).digest()
            for i in range(4)
        )
        return TdReport(
            mrtd=mrtd,
            rtmr=rtmr,
            report_data=padded,
            tee_tcb_svn=self.firmware,
        )


class TdxPlatform(TeePlatform):
    """Intel TDX on the paper's Xeon Gold 5515+ host."""

    name = "tdx"

    def __init__(self, seed: int = 0, firmware: str = GOOD_FIRMWARE) -> None:
        super().__init__(seed)
        self.module = TdxModule(firmware)

    def info(self) -> PlatformInfo:
        return PlatformInfo(
            name=self.name,
            display_name="Intel TDX",
            vendor="intel",
            is_simulated=False,
            supports_attestation=True,
            supports_perf_counters=True,
            description=(
                "Trust Domains behind the TDX Module (SEAM), "
                f"firmware {self.module.firmware}"
            ),
        )

    def build_machine(self) -> Machine:
        return xeon_gold_5515()

    def secure_profile(self) -> CostProfile:
        """TDX trusted-domain cost profile.

        Calibration notes (targets from the paper's shapes):

        - near-native CPU: TDs run at full speed, single-digit-percent
          penalty from TLB/EPT pressure;
        - memory encryption + integrity on all TD pages;
        - bounce-buffer copies per I/O byte — the iostress driver;
        - halt/wake transitions priced by the firmware model — the
          UnixBench driver;
        - occasional cache-hit *bonus* reproducing sub-1.0 ratio cells.
        """
        transition = self.module.transition_cost_ns
        return CostProfile(
            name="tdx",
            cpu_multiplier=1.010,
            mem_alloc_multiplier=1.040,
            mem_access_multiplier=1.030,
            io_read_multiplier=1.10,
            io_write_multiplier=1.10,
            syscall_multiplier=1.12,
            mem_encrypted=True,
            mem_integrity=True,
            mem_miss_extra_ns=8.0,
            syscall_transition_ns=0.0,
            halt_transition_ns=2.0 * transition,   # HLT exit + wake
            io_transition_ns=transition,           # virtio kick
            io_bounce_per_byte_ns=0.14,
            cache_hit_bonus_probability=0.22,
            cache_hit_bonus=0.0045,
            noise_sigma=0.020,
            startup_ns=2_400_000.0,
        )
