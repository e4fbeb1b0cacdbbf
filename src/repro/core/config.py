"""Gateway configuration.

§III-A: "a dedicated gateway configuration file maps TEEs and their
interface ports".  :class:`GatewayConfig` is that file's in-memory
form; :func:`default_config` builds the paper's testbed in code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GatewayError


@dataclass
class PlatformEntry:
    """One execution platform the gateway can dispatch to."""

    platform: str            # registry name: tdx / sev-snp / cca / novm
    host: str                # host machine identifier
    base_port: int           # first port of this platform's VM range
    vm_count: int = 2        # secure + normal by default
    seed: int = 0

    def __post_init__(self) -> None:
        if not (1024 <= self.base_port <= 65000):
            raise GatewayError(f"base port out of range: {self.base_port}")
        if self.vm_count < 1:
            raise GatewayError(f"need at least one VM: {self.vm_count}")

    def ports(self) -> list[int]:
        """The destination ports assigned to this platform's VMs."""
        return list(range(self.base_port, self.base_port + self.vm_count))


@dataclass
class GatewayConfig:
    """The full gateway configuration."""

    entries: list[PlatformEntry] = field(default_factory=list)
    load_balancing: str = "round-robin"
    default_trials: int = 10        # the paper's 10 independent trials

    def __post_init__(self) -> None:
        if self.default_trials < 1:
            raise GatewayError(f"trials must be >= 1: {self.default_trials}")
        seen_ports: set[int] = set()
        for entry in self.entries:
            overlap = seen_ports.intersection(entry.ports())
            if overlap:
                raise GatewayError(f"port collision on {sorted(overlap)}")
            seen_ports.update(entry.ports())

    def platforms(self) -> list[str]:
        """Configured platform names, in entry order."""
        return [entry.platform for entry in self.entries]


def default_config(seed: int = 0) -> GatewayConfig:
    """The paper's testbed: TDX, SEV-SNP and CCA hosts plus a plain VM."""
    return GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon-gold-5515",
                      base_port=9100, seed=seed),
        PlatformEntry(platform="sev-snp", host="epyc-9124",
                      base_port=9200, seed=seed),
        PlatformEntry(platform="cca", host="arm-fvp",
                      base_port=9300, seed=seed),
        PlatformEntry(platform="novm", host="xeon-gold-5515",
                      base_port=9400, seed=seed),
    ])
