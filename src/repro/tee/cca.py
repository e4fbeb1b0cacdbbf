"""ARM CCA platform simulator.

Models the CCA software stack §II describes:

- **Four worlds** (normal, secure, realm, root) with their physical
  address spaces; confidential VMs and the Realm Management Monitor
  (RMM) live in the realm world at different exception levels.
- The **RMM** exposing the Realm Services Interface (RSI, used by
  realms for attestation/memory services) and the Realm Management
  Interface (RMI, used by the host to manage realms).
- **Two-stage address translation** with the RMM owning stage 2.
- The **FVP simulation layer** everything runs inside (see
  :mod:`repro.tee.fvp`), which both slows execution down uniformly
  and adds the variance behind Fig. 8's long whiskers.

Like the paper's setup, the simulated CCA lacks the hardware needed
for attestation report signing, so :meth:`CcaPlatform.attestation_device`
raises :class:`~repro.errors.TeeUnsupportedError` — the Fig. 5 bench
consequently covers TDX and SEV-SNP only.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.errors import TeeError, TeeUnsupportedError
from repro.guestos.context import CostProfile
from repro.hw.machine import Machine, fvp_model
from repro.tee.base import PlatformInfo, TeePlatform, TransitionStats
from repro.tee.fvp import FvpSimulator


class World(enum.Enum):
    """CCA security worlds, each with its own physical address space."""

    NORMAL = "normal"
    SECURE = "secure"
    REALM = "realm"
    ROOT = "root"


class RealmState(enum.Enum):
    """Lifecycle of a realm per the RMM specification (simplified)."""

    NEW = "new"
    ACTIVE = "active"
    DESTROYED = "destroyed"


@dataclass
class Realm:
    """One confidential VM in the realm world."""

    rid: int
    identity: str
    state: RealmState = RealmState.NEW
    measurement: bytes = b""
    granules: int = 0   # delegated 4 KiB granules


class RealmManagementMonitor:
    """The RMM: realm-world firmware at EL2.

    The host drives realm lifecycle through RMI calls; realms request
    services through RSI calls.  Every call is a priced world switch.
    """

    RMI_COST_NS = 9_000.0   # host <-> RMM transition (through root world)
    RSI_COST_NS = 7_000.0   # realm <-> RMM transition

    def __init__(self) -> None:
        self.stats = TransitionStats()
        self._realms: dict[int, Realm] = {}
        self._next_rid = 1

    # -- RMI: host-side management ------------------------------------

    def rmi_realm_create(self, identity: str) -> tuple[Realm, float]:
        """RMI_REALM_CREATE: make a new realm in state NEW."""
        self.stats.record("rmi_calls")
        realm = Realm(rid=self._next_rid, identity=identity)
        realm.measurement = hashlib.sha384(
            f"realm-initial:{identity}".encode()
        ).digest()
        self._realms[realm.rid] = realm
        self._next_rid += 1
        return realm, self.RMI_COST_NS

    def rmi_granule_delegate(self, rid: int, granules: int) -> float:
        """RMI_GRANULE_DELEGATE: move pages into the realm PAS."""
        self.stats.record("rmi_calls")
        realm = self._get(rid)
        if realm.state is RealmState.DESTROYED:
            raise TeeError(f"realm {rid} destroyed")
        if granules < 0:
            raise TeeError(f"negative granule count: {granules}")
        realm.granules += granules
        return self.RMI_COST_NS + granules * 400.0

    def rmi_realm_activate(self, rid: int) -> float:
        """RMI_REALM_ACTIVATE: seal the measurement, allow execution."""
        self.stats.record("rmi_calls")
        realm = self._get(rid)
        if realm.state is not RealmState.NEW:
            raise TeeError(f"realm {rid} cannot activate from {realm.state.value}")
        realm.state = RealmState.ACTIVE
        return self.RMI_COST_NS

    def rmi_realm_destroy(self, rid: int) -> float:
        """RMI_REALM_DESTROY: tear the realm down, reclaim granules."""
        self.stats.record("rmi_calls")
        realm = self._get(rid)
        if realm.state is RealmState.DESTROYED:
            raise TeeError(f"realm {rid} already destroyed")
        realm.state = RealmState.DESTROYED
        realm.granules = 0
        return self.RMI_COST_NS

    # -- RSI: realm-side services ----------------------------------------

    def rsi_attestation_token(self, rid: int, challenge: bytes) -> tuple[dict, float]:
        """RSI_ATTESTATION_TOKEN: measurements bound to a challenge.

        Returns the *unsigned* token body: on FVP there is no hardware
        key to sign with (the paper leaves CCA out of the attestation
        experiment for exactly this reason).
        """
        self.stats.record("rsi_calls")
        realm = self._get(rid)
        if realm.state is not RealmState.ACTIVE:
            raise TeeError(f"realm {rid} not active")
        if len(challenge) > 64:
            raise TeeError(f"challenge must be <= 64 bytes, got {len(challenge)}")
        token = {
            "realm_initial_measurement": realm.measurement,
            "challenge": challenge.ljust(64, b"\0"),
            "rim_extensions": (),
            "signed": False,
        }
        return token, self.RSI_COST_NS

    def rsi_ipa_state_set(self, rid: int, pages: int) -> float:
        """RSI_IPA_STATE_SET: realm changes page protection (stage 2)."""
        self.stats.record("rsi_calls")
        realm = self._get(rid)
        if realm.state is not RealmState.ACTIVE:
            raise TeeError(f"realm {rid} not active")
        if pages < 0:
            raise TeeError(f"negative page count: {pages}")
        return self.RSI_COST_NS + pages * 350.0

    def _get(self, rid: int) -> Realm:
        try:
            return self._realms[rid]
        except KeyError:
            raise TeeError(f"no such realm: {rid}") from None


@dataclass
class StageTwoTranslation:
    """RMM-managed stage-2 translation cost model.

    Realm memory accesses translate VA -> IPA (stage 1, guest) and
    IPA -> PA (stage 2, RMM-owned tables); under FVP emulation the
    second stage is notably expensive.
    """

    walk_cost_ns: float = 110.0
    tlb_hit_rate: float = 0.986

    def access_overhead_ns(self, accesses: int) -> float:
        """Added cost of stage-2 walks for ``accesses`` memory accesses."""
        if accesses < 0:
            raise TeeError(f"negative access count: {accesses}")
        misses = accesses * (1.0 - self.tlb_hit_rate)
        return misses * self.walk_cost_ns


class CcaPlatform(TeePlatform):
    """ARM CCA realms inside the FVP simulator."""

    name = "cca"

    def __init__(self, seed: int = 0, fvp: FvpSimulator | None = None) -> None:
        super().__init__(seed)
        self.fvp = fvp if fvp is not None else FvpSimulator()
        self.rmm = RealmManagementMonitor()
        self.stage2 = StageTwoTranslation()

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
            halt_transition_ns=2.0 * self.rmm.RMI_COST_NS,
            io_transition_ns=self.rmm.RSI_COST_NS,
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

    def attestation_device(self):
        raise TeeUnsupportedError(
            "CCA attestation needs hardware the FVP simulator lacks; "
            "the paper's Fig. 5 covers TDX and SEV-SNP only"
        )
