"""TEE-enabled hosts.

§III-A: hosts "receive requests from the gateway, and, based on the
query arguments (i.e., destination port), they will route them to the
appropriate destination".  A :class:`Host` owns one platform's VMs,
maps destination ports to VMs (the prototype's socat steering), and
executes dispatched workloads on the right VM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GatewayError, VmError
from repro.tee.base import TeePlatform, VmConfig
from repro.tee.vm import RunResult, Vm


@dataclass
class Host:
    """One TEE-capable machine holding confidential and normal VMs."""

    name: str
    platform: TeePlatform
    port_map: dict[int, Vm] = field(default_factory=dict)
    requests_routed: int = 0
    vms_respawned: int = 0

    def provision_vm(self, port: int, secure: bool,
                     config: VmConfig | None = None) -> Vm:
        """Create, boot, and register a VM on a destination port."""
        if port in self.port_map:
            raise GatewayError(f"host {self.name}: port {port} already mapped")
        vm_config = config if config is not None else VmConfig(secure=secure)
        if vm_config.secure != secure:
            vm_config = VmConfig(
                vcpus=vm_config.vcpus,
                memory_mib=vm_config.memory_mib,
                secure=secure,
                image=vm_config.image,
            )
        vm = self.platform.create_vm(vm_config)
        vm.boot()
        self.port_map[port] = vm
        return vm

    def vm_for_port(self, port: int) -> Vm:
        """Route a destination port to its VM."""
        try:
            return self.port_map[port]
        except KeyError:
            known = ", ".join(map(str, sorted(self.port_map))) or "none"
            raise GatewayError(
                f"host {self.name}: no VM on port {port} (mapped: {known})"
            ) from None

    def route(self, port: int, workload, name: str = "anonymous",
              trial: int = 0) -> RunResult:
        """Execute a request arriving for ``port``.

        ``requests_routed`` counts requests that actually reached a VM
        — a request rejected for an unmapped port never routed.
        """
        vm = self.vm_for_port(port)
        self.requests_routed += 1
        return vm.run(workload, name=name, trial=trial)

    def respawn_vm(self, port: int) -> Vm:
        """Replace the VM on ``port`` with a freshly booted one.

        The failure-handling path the pools use: the dead VM is torn
        down (tolerating an already-destroyed state), unmapped, and a
        new VM with the same configuration is provisioned on the same
        port.
        """
        old = self.vm_for_port(port)
        try:
            old.destroy()
        except VmError:
            pass   # already dead; replacing it is the point
        del self.port_map[port]
        vm = self.provision_vm(port, secure=old.secure, config=old.config)
        self.vms_respawned += 1
        return vm

    def contention_factor(self, active_vms: int) -> float:
        """Slowdown when ``active_vms`` share this host's cores.

        Models the §VI multi-tenant scenario: below core count the
        factor is 1.0; oversubscription degrades sublinearly (shared
        caches and memory bandwidth before timeslicing).
        """
        if active_vms < 1:
            raise GatewayError(f"need at least one active VM: {active_vms}")
        cores = self.platform.build_machine().spec.cores
        if active_vms <= cores:
            return 1.0
        return (active_vms / cores) ** 0.85

    def route_colocated(self, requests: list[tuple[int, object, str]],
                        trial: int = 0) -> list[RunResult]:
        """Run several requests as co-scheduled tenants.

        ``requests`` is a list of ``(port, workload, name)``; every run
        is priced with the contention factor of the whole batch.
        """
        factor = self.contention_factor(len(requests))
        results = []
        for port, workload, name in requests:
            vm = self.vm_for_port(port)
            self.requests_routed += 1
            results.append(vm.run(workload, name=name, trial=trial,
                                  contention=factor))
        return results

    def vms(self) -> list[Vm]:
        """All VMs on this host in port order."""
        return [self.port_map[port] for port in sorted(self.port_map)]
