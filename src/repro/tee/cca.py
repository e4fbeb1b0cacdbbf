"""ARM CCA platform simulator.

The one place CCA is priced is :meth:`CcaPlatform.secure_profile`, the
:class:`~repro.guestos.context.CostProfile` the guest executor charges
every op from.  The realm world's mechanisms (§II) appear there as
costs, not as state:

- the **Realm Management Monitor** (RMM) mediates the host's calls
  through the Realm Management Interface (RMI) and the realm's calls
  through the Realm Services Interface (RSI); a halt/wake pays two RMI
  world switches (:data:`RMI_TRANSITION_NS`) and an I/O kick one RSI
  switch (:data:`RSI_TRANSITION_NS`);
- **RMM-owned stage-2 translation** and realm memory protection show
  up as memory multipliers and cache-miss overhead;
- the **FVP simulation layer** everything runs inside (see
  :mod:`repro.tee.fvp`), the one piece of state the platform keeps,
  both slows execution down uniformly and adds the variance behind
  Fig. 8's long whiskers.

No run reads realm lifecycle state, so none is kept.  Like the
paper's setup, the simulated CCA lacks the hardware needed to sign
attestation tokens (:attr:`PlatformInfo.supports_attestation` is
false), so the Fig. 5 bench covers TDX and SEV-SNP only.
"""

from __future__ import annotations

from repro.guestos.context import CostProfile
from repro.hw.machine import Machine, fvp_model
from repro.tee.base import PlatformInfo, TeePlatform
from repro.tee.fvp import FvpSimulator

#: Host <-> RMM world switch through the root world (RMI), in ns.
RMI_TRANSITION_NS = 9_000.0
#: Realm <-> RMM world switch (RSI), in ns.
RSI_TRANSITION_NS = 7_000.0


class CcaPlatform(TeePlatform):
    """ARM CCA realms inside the FVP simulator."""

    name = "cca"

    def __init__(self, seed: int = 0, fvp: FvpSimulator | None = None) -> None:
        super().__init__(seed)
        self.fvp = fvp if fvp is not None else FvpSimulator()

    def info(self) -> PlatformInfo:
        return PlatformInfo(
            name=self.name,
            display_name="ARM CCA (FVP)",
            vendor="arm",
            is_simulated=True,
            supports_attestation=False,   # FVP lacks the signing hardware
            supports_perf_counters=False,  # perf unavailable inside realms
            description=(
                f"Realms behind the RMM inside FVP (slowdown {self.fvp.slowdown}x)"
            ),
        )

    def build_machine(self) -> Machine:
        return fvp_model()

    def secure_profile(self) -> CostProfile:
        """Realm cost profile (inside FVP).

        Everything inside FVP gets the simulator slowdown (see
        :meth:`normal_profile` — it applies to the normal VM too, so
        the *ratio* reflects realm mechanisms, not the simulator).
        The realm additionally pays RMM-mediated stage-2 handling,
        priced world switches on every syscall's trap path under
        emulation, and heavy emulated-virtio I/O — which is what makes
        the mixed-operation DBMS workload the paper's worst CCA case.
        """
        return CostProfile(
            name="cca",
            cpu_multiplier=1.21,
            mem_alloc_multiplier=1.42,
            mem_access_multiplier=1.28,
            io_read_multiplier=12.0,
            io_write_multiplier=12.0,
            syscall_multiplier=2.6,
            mem_encrypted=True,
            mem_integrity=True,
            mem_miss_extra_ns=24.0,
            syscall_transition_ns=1_800.0,   # emulated trap path intrusion
            halt_transition_ns=2.0 * RMI_TRANSITION_NS,
            io_transition_ns=RSI_TRANSITION_NS,
            io_bounce_per_byte_ns=0.5,
            cache_hit_bonus_probability=0.0,
            cache_hit_bonus=0.0,
            noise_sigma=self.fvp.noise_sigma,
            startup_ns=9_500_000.0,
            simulator_multiplier=self.fvp.slowdown,
        )

    def normal_profile(self) -> CostProfile:
        """The non-secure VM inside the same FVP instance.

        Near-native multipliers, but the same simulator slowdown and
        elevated (though smaller) noise: normal-VM whiskers in Fig. 8
        are shorter than realm whiskers but longer than bare metal.
        """
        return CostProfile(
            name="cca-normal",
            noise_sigma=self.fvp.noise_sigma * 0.55,
            simulator_multiplier=self.fvp.slowdown,
        )

