"""TEE platform simulators.

One module per platform the paper benches:

- :mod:`repro.tee.tdx` — Intel TDX: the TDX Module with its firmware
  and TDREPORT generation.
- :mod:`repro.tee.sevsnp` — AMD SEV-SNP: the AMD-SP secure coprocessor
  that answers report requests, and the VM Privilege Levels.
- :mod:`repro.tee.cca` — ARM CCA: realms behind the Realm Management
  Monitor, all running inside the :mod:`repro.tee.fvp` simulation
  layer.
- :mod:`repro.tee.novm` — the plain, non-confidential VM used as the
  ratio baseline.

Each platform's :class:`~repro.guestos.context.CostProfile` is the only
thing that prices its mechanisms (world switches, protected memory,
bounce-buffered I/O); the mechanism objects keep only the state and
inputs a run reads (firmware, chip id, report inputs, FVP knobs).
The common surface is :class:`repro.tee.base.TeePlatform`; the shared
VM execution engine lives in :mod:`repro.tee.vm`.
"""

from repro.tee.base import TeePlatform, VmConfig
from repro.tee.vm import Vm, VmState, RunResult
from repro.tee.novm import NormalVmPlatform
from repro.tee.tdx import TdxPlatform, TdxModule
from repro.tee.sevsnp import SevSnpPlatform, Vmpl
from repro.tee.cca import CcaPlatform
from repro.tee.container import ConfidentialContainerPlatform
from repro.tee.fvp import FvpSimulator
from repro.tee.sgx import SgxEnclavePlatform
from repro.tee.registry import (
    PLATFORM_FACTORIES,
    available_platforms,
    platform_by_name,
)

__all__ = [
    "TeePlatform",
    "VmConfig",
    "Vm",
    "VmState",
    "RunResult",
    "NormalVmPlatform",
    "TdxPlatform",
    "TdxModule",
    "SevSnpPlatform",
    "Vmpl",
    "CcaPlatform",
    "ConfidentialContainerPlatform",
    "FvpSimulator",
    "SgxEnclavePlatform",
    "PLATFORM_FACTORIES",
    "available_platforms",
    "platform_by_name",
]
