"""Common TEE platform interface.

A :class:`TeePlatform` knows how to build the host machine it runs on,
how to price secure and normal execution on that host (via
:class:`~repro.guestos.context.CostProfile`), and how to create VMs.
Adding a new TEE to the reproduction — like adding one to ConfBench
itself — means implementing this interface and registering it in
:mod:`repro.tee.registry`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import VmError
from repro.guestos.context import NATIVE_PROFILE, CostProfile
from repro.hw.machine import Machine
from repro.sim.rng import SimRng


@dataclass
class VmConfig:
    """Requested VM shape.

    ``secure`` selects the confidential variant (TD / SNP guest /
    realm); both variants boot from the same image so that workload
    execution environments match, as §III-B requires ("every VM on a
    host must have the same file locations, libraries, interpreters").
    """

    vcpus: int = 2
    memory_mib: int = 4096
    secure: bool = True
    image: str = "ubuntu-cloud"

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise VmError(f"need at least one vcpu, got {self.vcpus}")
        if self.memory_mib < 128:
            raise VmError(f"need at least 128 MiB, got {self.memory_mib}")


@dataclass
class PlatformInfo:
    """Static facts about a platform, used by the gateway and docs."""

    name: str
    display_name: str
    vendor: str
    is_simulated: bool
    supports_attestation: bool
    supports_perf_counters: bool
    description: str = ""


class TeePlatform(abc.ABC):
    """One TEE technology on one host machine."""

    #: short machine-readable name, e.g. ``"tdx"``
    name: str = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = SimRng(seed, f"platform/{self.name}")
        self._vm_counter = 0

    # -- static description -------------------------------------------

    @abc.abstractmethod
    def info(self) -> PlatformInfo:
        """Static platform facts."""

    # -- cost modelling -------------------------------------------------

    @abc.abstractmethod
    def build_machine(self) -> Machine:
        """A fresh host machine of the right shape."""

    @abc.abstractmethod
    def secure_profile(self) -> CostProfile:
        """Cost profile of the confidential VM variant."""

    def normal_profile(self) -> CostProfile:
        """Cost profile of the non-confidential VM variant.

        Defaults to the native passthrough.  Platforms that wrap both
        VM kinds in a software layer (CCA's FVP) override this so
        absolute times are layered even for the normal VM.
        """
        return NATIVE_PROFILE

    def profile_for(self, secure: bool) -> CostProfile:
        """Profile for a VM of the requested kind."""
        return self.secure_profile() if secure else self.normal_profile()

    # -- VM factory -------------------------------------------------------

    def create_vm(self, config: VmConfig | None = None) -> "Vm":
        """Create (but do not boot) a VM on this platform."""
        from repro.tee.vm import Vm  # local import to avoid a cycle

        self._vm_counter += 1
        return Vm(
            vm_id=f"{self.name}-vm{self._vm_counter}",
            platform=self,
            config=config if config is not None else VmConfig(),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"

