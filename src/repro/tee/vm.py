"""VM lifecycle and execution engine.

A :class:`Vm` belongs to one platform and is either confidential or
normal.  Booting charges platform-specific bring-up; each
:meth:`Vm.run` executes a workload callable inside a fresh
:class:`~repro.guestos.context.ExecContext` + guest kernel, so runs
are independent trials (as in the paper's 10-trial methodology) while
the VM-level perf counters accumulate across runs.

Workload callables receive the :class:`~repro.guestos.kernel.GuestKernel`
and return an arbitrary JSON-able payload; the engine wraps that in a
:class:`RunResult` carrying elapsed time, the cost-ledger breakdown,
and the perf-counter delta that ConfBench's monitor piggybacks onto
responses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import VmCrashError, VmError
from repro.guestos.context import ExecContext
from repro.guestos.kernel import GuestKernel
from repro.hw.perfcounters import PerfCounters
from repro.sim.clock import ns_to_ms
from repro.sim.faults import FaultContext, FaultKind
from repro.sim.ledger import CostCategory, CostLedger
from repro.sim.rng import SimRng
from repro.sim.trace import Trace
from repro.tee.base import TeePlatform, VmConfig


class VmState(enum.Enum):
    """VM lifecycle states."""

    CREATED = "created"
    BOOTED = "booted"
    DESTROYED = "destroyed"


#: Memoized category lookup for :meth:`RunResult.from_dict` — the enum
#: constructor's value lookup costs a call per record, and cache/journal
#: reloads rebuild thousands of results.
_CATEGORY_BY_NAME = {category.value: category for category in CostCategory}


@dataclass
class RunResult:
    """Outcome of one workload run in one VM."""

    vm_id: str
    platform: str
    secure: bool
    workload: str
    output: Any
    elapsed_ns: float
    total_ns: float                     # including startup charges
    ledger: CostLedger
    counters: PerfCounters
    trial: int = 0
    trace: Trace = field(default_factory=Trace)
    #: failure-handling metadata (left at defaults on clean runs so a
    #: zero-fault serialisation is byte-identical to the classic form)
    attempts: int = 1
    faults_injected: tuple[str, ...] = ()
    degraded: bool = False

    @property
    def elapsed_ms(self) -> float:
        """Elapsed time (net of bootstrap) in milliseconds."""
        return ns_to_ms(self.elapsed_ns)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary (what the gateway returns to users)."""
        payload = {
            "vm_id": self.vm_id,
            "platform": self.platform,
            "secure": self.secure,
            "workload": self.workload,
            "trial": self.trial,
            "output": self.output,
            "elapsed_ns": self.elapsed_ns,
            "elapsed_ms": self.elapsed_ms,
            "total_ns": self.total_ns,
            "perf": self.counters.as_dict(),
            "cost_breakdown": {
                category.value: nanos for category, nanos in self.ledger
            },
            "trace": self.trace.to_list(),
        }
        if self.attempts != 1 or self.faults_injected or self.degraded:
            payload["attempts"] = self.attempts
            payload["faults_injected"] = list(self.faults_injected)
            payload["degraded"] = self.degraded
        return payload

    def emit(self, sink, prefix: str = "run") -> None:
        """Feed this result's measurements into a metrics sink.

        ``sink`` is duck-typed against the :mod:`repro.obs` sink
        protocol (``count`` / ``observe``); the tee layer sits below
        the observability package and must not import it.  Metric
        names are keyed by platform and secure/normal side so the
        registry separates the paper's comparison axes.
        """
        side = "secure" if self.secure else "normal"
        base = f"{prefix}.{self.platform}.{side}"
        sink.count(f"{base}.trials", 1)
        if self.degraded:
            sink.count(f"{base}.degraded", 1)
        if self.attempts > 1:
            sink.count(f"{base}.retries", self.attempts - 1)
        sink.observe(f"{base}.elapsed_ns", self.elapsed_ns)
        sink.observe(f"{base}.total_ns", self.total_ns)
        self.ledger.emit(sink, prefix=f"{base}.ledger")
        self.counters.emit(sink, prefix=f"{base}.perf")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (cache reload)."""
        ledger = CostLedger()
        for name, nanos in payload.get("cost_breakdown", {}).items():
            category = _CATEGORY_BY_NAME.get(name)
            if category is None:
                raise VmError(f"unknown cost category in payload: {name!r}")
            # cold path: one charge per serialized category, not per op
            ledger.charge(category, nanos)  # confbench: allow[hot-path-per-op]
        trace = Trace()
        for span in payload.get("trace", []):
            trace.record(span["name"], span["start_ns"], span["end_ns"],
                         breakdown=span.get("breakdown"),
                         parent=span.get("parent"))
        return cls(
            vm_id=payload["vm_id"],
            platform=payload["platform"],
            secure=payload["secure"],
            workload=payload["workload"],
            output=payload["output"],
            elapsed_ns=payload["elapsed_ns"],
            total_ns=payload["total_ns"],
            ledger=ledger,
            counters=PerfCounters(**payload["perf"]),
            trial=payload["trial"],
            trace=trace,
            attempts=payload.get("attempts", 1),
            faults_injected=tuple(payload.get("faults_injected", ())),
            degraded=payload.get("degraded", False),
        )


# VM bring-up costs (ns).  Confidential VMs measure and accept pages at
# launch, which is why their boot is slower.
_BOOT_BASE_NS = 900_000_000.0          # ~0.9 s plain VM boot
_SECURE_BOOT_EXTRA_PER_MIB_NS = 110_000.0


@dataclass
class Vm:
    """One virtual machine instance."""

    vm_id: str
    platform: TeePlatform
    config: VmConfig
    state: VmState = VmState.CREATED
    boot_time_ns: float = 0.0
    counters: PerfCounters = field(default_factory=PerfCounters)
    run_count: int = 0

    @property
    def secure(self) -> bool:
        """Whether this is the confidential variant."""
        return self.config.secure

    def boot(self) -> float:
        """Boot the VM; returns the virtual boot time in ns.

        Confidential boots pay per-MiB launch measurement (page
        acceptance / RMP assignment / realm population).
        """
        if self.state is not VmState.CREATED:
            raise VmError(f"{self.vm_id}: cannot boot from state {self.state.value}")
        boot_ns = _BOOT_BASE_NS
        if self.secure:
            boot_ns += self.config.memory_mib * _SECURE_BOOT_EXTRA_PER_MIB_NS
        profile = self.platform.profile_for(self.secure)
        boot_ns *= profile.simulator_multiplier
        self.boot_time_ns = boot_ns
        self.state = VmState.BOOTED
        return boot_ns

    def destroy(self) -> None:
        """Tear the VM down; it cannot run afterwards."""
        if self.state is VmState.DESTROYED:
            raise VmError(f"{self.vm_id}: already destroyed")
        self.state = VmState.DESTROYED

    def run(
        self,
        workload: Callable[[GuestKernel], Any],
        name: str = "anonymous",
        trial: int = 0,
        contention: float = 1.0,
        rng: SimRng | None = None,
        trace: Trace | None = None,
        faults: FaultContext | None = None,
    ) -> RunResult:
        """Execute ``workload`` in this VM and measure it.

        Each run gets a fresh guest kernel and exec context seeded from
        ``(platform seed, vm id, workload name, trial)`` so trials are
        independent but reproducible.  The runner pipeline passes an
        explicit per-trial ``rng`` substream instead, making the draws
        independent of VM identity and execution order (the property
        the parallel executor's bit-identical guarantee rests on).

        ``contention`` (>= 1.0) uniformly inflates costs to model
        co-scheduled VMs oversubscribing the host (the §VI multi-tenant
        study); 1.0 means the VM runs alone.

        Every run records a span trace (``launch`` + ``execute`` root
        spans at minimum); pass ``trace`` to prepend host-side spans
        such as ``boot``.  Workload bodies can open sub-spans through
        ``kernel.ctx.trace``.

        ``faults`` enables seeded fault injection: a triggered
        slow-trial degrades the whole run (like contention), and a
        triggered vm-crash destroys the VM mid-execute and raises
        :class:`~repro.errors.VmCrashError` carrying the wasted
        virtual time.
        """
        if self.state is not VmState.BOOTED:
            raise VmError(f"{self.vm_id}: cannot run in state {self.state.value}")
        if contention < 1.0:
            raise VmError(f"contention factor must be >= 1.0: {contention}")

        self.run_count += 1
        machine = self.platform.build_machine()
        profile = self.platform.profile_for(self.secure)
        slowdown = contention
        if faults is not None and faults.triggers(FaultKind.SLOW_TRIAL, "slow"):
            slowdown *= faults.plan.slow_factor
        if slowdown > 1.0:
            import dataclasses

            profile = dataclasses.replace(
                profile,
                simulator_multiplier=profile.simulator_multiplier * slowdown,
            )
        if trace is None:
            trace = Trace()
        ctx = ExecContext(
            machine=machine,
            profile=profile,
            rng=(rng if rng is not None
                 else self.platform.rng.child(f"{self.vm_id}/{name}/{trial}")),
            trace=trace,
            faults=faults,
        )
        kernel = GuestKernel(ctx)
        with trace.span("launch", ctx):
            if ctx.profile.startup_ns > 0:
                # per-invocation platform prep (TD entry setup, enclave
                # creation, sandbox cold start) — charged as STARTUP so
                # the paper-style elapsed time excludes it, but total_ns
                # keeps it
                ctx.startup(ctx.profile.startup_ns)

        before = machine.counters.snapshot()
        with trace.span("execute", ctx):
            if faults is not None and faults.triggers(FaultKind.VM_CRASH,
                                                     "execute"):
                # the TD dies partway through the body: account for the
                # work already charged plus a drawn partial-execution
                # waste, then leave the VM unusable
                wasted = (ctx.elapsed_ns(exclude_startup=False)
                          + faults.waste_ns("execute"))
                self.state = VmState.DESTROYED
                raise VmCrashError(
                    f"{self.vm_id}: injected VM crash during execute",
                    wasted_ns=wasted,
                )
            output = workload(kernel)
        delta = machine.counters.delta(before)
        self.counters.add(delta)

        return RunResult(
            vm_id=self.vm_id,
            platform=self.platform.name,
            secure=self.secure,
            workload=name,
            output=output,
            elapsed_ns=ctx.elapsed_ns(exclude_startup=True),
            total_ns=ctx.elapsed_ns(exclude_startup=False),
            ledger=ctx.ledger,
            counters=delta,
            trial=trial,
            trace=trace,
        )
