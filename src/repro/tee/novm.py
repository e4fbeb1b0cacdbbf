"""The plain, non-confidential VM platform.

ConfBench always deploys a "normal" VM next to each secure VM so that
overhead ratios have a baseline.  On the hardware TEE hosts the
normal VM is an ordinary KVM guest; this platform models that case as
a near-passthrough (tiny virtualisation noise, no TEE costs).

This platform is also useful standalone: submitting a workload with
``secure=False`` through the gateway lands here when no TEE host is
involved.
"""

from __future__ import annotations

from repro.guestos.context import CostProfile
from repro.hw.machine import Machine, machine_by_name
from repro.tee.base import PlatformInfo, TeePlatform


class NormalVmPlatform(TeePlatform):
    """A legacy VM on a host without TEE protections engaged."""

    name = "novm"
    #: the machine the normal VM runs on
    host = "xeon-gold-5515"

    def info(self) -> PlatformInfo:
        return PlatformInfo(
            name=self.name,
            display_name="Normal VM",
            vendor="generic",
            is_simulated=False,
            supports_attestation=False,
            supports_perf_counters=True,
            description=f"non-confidential KVM guest on {self.host}",
        )

    def build_machine(self) -> Machine:
        return machine_by_name(self.host)

    def secure_profile(self) -> CostProfile:
        """A "secure" request on this platform is still a plain VM."""
        return self.normal_profile()

    def normal_profile(self) -> CostProfile:
        return CostProfile(name="novm", noise_sigma=0.012)
