"""Machine assembly and testbed factories.

A :class:`Machine` bundles the component models into one host.  Factory
functions reproduce the paper's experimental settings (§IV-A):

- TDX host: 8-core Intel Xeon Gold 5515+ @ 3.20 GHz, 64 GiB RAM.
- SEV-SNP host: 16-core AMD EPYC 9124 @ 3.0 GHz, 64 GiB RAM.
- CCA host: ARM FVP model (the fixed virtual platform the paper uses,
  since no CCA silicon was commercially available).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.cpu import CacheModel, CpuModel
from repro.hw.disk import DiskModel
from repro.hw.memory import MemoryModel
from repro.hw.nic import NicModel, lan_path
from repro.hw.perfcounters import PerfCounters


@dataclass
class MachineSpec:
    """Static description of a host machine."""

    name: str
    vendor: str
    cores: int
    frequency_ghz: float
    ram_gib: int
    description: str = ""


@dataclass
class Machine:
    """A simulated host: component models plus live perf counters."""

    spec: MachineSpec
    cpu: CpuModel
    memory: MemoryModel
    disk: DiskModel
    nic: NicModel
    counters: PerfCounters = field(default_factory=PerfCounters)


def xeon_gold_5515() -> Machine:
    """The paper's Intel TDX host (Xeon Gold 5515+, 8 cores, 3.2 GHz)."""
    spec = MachineSpec(
        name="xeon-gold-5515",
        vendor="intel",
        cores=8,
        frequency_ghz=3.2,
        ram_gib=64,
        description="Intel Xeon Gold 5515+ (TDX host, Ubuntu 24.04, kernel 6.8)",
    )
    cpu = CpuModel(
        frequency_ghz=3.2,
        base_ipc=2.4,
        cache=CacheModel(size_bytes=22 * 1024 * 1024, miss_penalty_ns=62.0),
    )
    return Machine(
        spec=spec,
        cpu=cpu,
        memory=MemoryModel(bandwidth_gbps=24.0),
        disk=DiskModel(),
        nic=lan_path(),
    )


def epyc_9124() -> Machine:
    """The paper's AMD SEV-SNP host (EPYC 9124, 16 cores, 3.0 GHz)."""
    spec = MachineSpec(
        name="epyc-9124",
        vendor="amd",
        cores=16,
        frequency_ghz=3.0,
        ram_gib=64,
        description="AMD EPYC 9124 (SEV-SNP host, Ubuntu 22.04, kernel 6.5)",
    )
    cpu = CpuModel(
        frequency_ghz=3.0,
        base_ipc=2.3,
        cache=CacheModel(size_bytes=64 * 1024 * 1024, miss_penalty_ns=70.0),
    )
    return Machine(
        spec=spec,
        cpu=cpu,
        memory=MemoryModel(bandwidth_gbps=22.0),
        disk=DiskModel(),
        nic=lan_path(),
    )


def fvp_model() -> Machine:
    """The ARM FVP host used for CCA.

    ARM claims the FVP runs "at speeds comparable to the real
    hardware"; the paper finds the simulation layer nevertheless
    dominates CCA's measured overheads.  The raw machine here is an
    ordinary ARM-server-like model — the FVP slowdown and variance are
    applied by :class:`repro.tee.fvp.FvpSimulator` on top.
    """
    spec = MachineSpec(
        name="arm-fvp",
        vendor="arm",
        cores=4,
        frequency_ghz=2.6,
        ram_gib=16,
        description="ARM FVP fixed virtual platform (CCA realms, simulated)",
    )
    cpu = CpuModel(
        frequency_ghz=2.6,
        base_ipc=2.0,
        cache=CacheModel(size_bytes=8 * 1024 * 1024, miss_penalty_ns=85.0),
    )
    return Machine(
        spec=spec,
        cpu=cpu,
        memory=MemoryModel(bandwidth_gbps=14.0),
        disk=DiskModel(
            read_latency_us=110.0,
            write_latency_us=45.0,
            read_bandwidth_mbps=1600.0,
            write_bandwidth_mbps=1200.0,
        ),
        nic=lan_path(),
    )


MACHINE_FACTORIES = {
    "xeon-gold-5515": xeon_gold_5515,
    "epyc-9124": epyc_9124,
    "arm-fvp": fvp_model,
}


def machine_by_name(name: str) -> Machine:
    """Build a fresh machine from a registered testbed name."""
    try:
        factory = MACHINE_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(MACHINE_FACTORIES))
        raise KeyError(f"unknown machine {name!r}; known: {known}") from None
    return factory()
