"""Execution context: where operations become virtual nanoseconds.

An :class:`ExecContext` binds together a machine, a virtual clock, a
cost ledger, a random stream, and a :class:`CostProfile`.  Workloads
and the guest kernel call its ``cpu_execute`` / ``mem_alloc`` /
``disk_read`` / ... methods or hand it an op batch; the context prices
each operation with the machine models, applies the platform's
multipliers and fixed costs, and charges the ledger while advancing
the clock.  Each op kind has one pricing rule (``ExecContext._price``),
which the per-op methods and the batch path both run.

:class:`CostProfile` is the single extension point TEE platforms
implement.  The default :data:`NATIVE_PROFILE` is a passthrough (all
multipliers 1.0, no transitions), used by the normal — non
confidential — VM so that secure/normal ratios have a clean baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.hw.machine import Machine
from repro.hw.perfcounters import PerfCounters
from repro.sim.clock import VirtualClock
from repro.sim.ledger import CostCategory, CostLedger
from repro.sim.opstream import BatchLedger, ChargePattern, Op, OpBatch
from repro.sim.rng import SimRng


@dataclass
class CostProfile:
    """Per-platform cost knobs applied on top of raw hardware costs.

    Parameters
    ----------
    name:
        Platform name (``novm``, ``tdx``, ``sev-snp``, ``cca``).
    cpu_multiplier, mem_alloc_multiplier, mem_access_multiplier,
    io_read_multiplier, io_write_multiplier, syscall_multiplier:
        Scale factors on the respective raw costs.
    mem_encrypted / mem_integrity:
        Whether the platform's inline memory protection applies.
    syscall_transition_ns:
        Fixed world-switch cost added to *every* syscall.  Zero on
        TDX/SEV-SNP (regular syscalls stay inside the guest); nonzero
        on CCA where the simulated stage-2 handling intrudes.
    halt_transition_ns:
        World-switch cost of one blocking context switch (the idle
        HLT exit plus the wake-up: TDVMCALL on TDX, VMEXIT/VMRUN on
        SNP, RMM exits on CCA).  This is the mechanism the paper (and
        Misono et al.) blame for UnixBench's outsized overheads.
    io_transition_ns:
        World-switch cost charged per disk operation (the virtio
        doorbell kick leaves the guest).
    io_bounce_per_byte_ns:
        Per-byte bounce-buffer copy cost on I/O (TDX routes DMA
        through shared memory outside the protected space).
    cache_hit_bonus_probability / cache_hit_bonus:
        With the given probability per run, the secure VM sees a
        *better* cache hit rate by ``cache_hit_bonus`` — reproducing
        the paper's sub-1.0 heatmap cells (§IV-D, TDXdown effect).
    noise_sigma:
        Lognormal sigma of the per-run multiplicative noise.
    startup_ns:
        VM-side bootstrap cost (charged to STARTUP; excluded from
        the paper's ratio measurements).
    simulator_multiplier:
        Uniform extra factor modelling a software simulation layer
        (only the FVP-based CCA platform sets this above 1.0).
    """

    name: str = "native"
    cpu_multiplier: float = 1.0
    mem_alloc_multiplier: float = 1.0
    mem_access_multiplier: float = 1.0
    io_read_multiplier: float = 1.0
    io_write_multiplier: float = 1.0
    syscall_multiplier: float = 1.0
    mem_encrypted: bool = False
    mem_integrity: bool = False
    mem_miss_extra_ns: float = 0.0   # per cache-line fill: decrypt + MAC/RMP check
    syscall_transition_ns: float = 0.0
    halt_transition_ns: float = 0.0
    io_transition_ns: float = 0.0
    io_bounce_per_byte_ns: float = 0.0
    cache_hit_bonus_probability: float = 0.0
    cache_hit_bonus: float = 0.0
    noise_sigma: float = 0.015
    startup_ns: float = 0.0
    simulator_multiplier: float = 1.0


NATIVE_PROFILE = CostProfile()

#: Op kinds that charge their single argument, as is, to one category.
_FLAT_KINDS = {
    "crypto": CostCategory.CRYPTO,
    "network_ns": CostCategory.NETWORK,
    "startup": CostCategory.STARTUP,
}


@dataclass(slots=True)
class ExecContext:
    """Binds machine + clock + ledger + rng + platform profile.

    One context corresponds to one run of one workload inside one VM.
    The per-run noise factor and the (possibly bonus-adjusted) cache
    hit behaviour are drawn once at construction, so a whole run is
    coherently "lucky" or "unlucky", matching how real trials behave.
    """

    machine: Machine
    profile: CostProfile = field(default_factory=CostProfile)
    clock: VirtualClock = field(default_factory=VirtualClock)
    ledger: CostLedger = field(default_factory=CostLedger)
    rng: SimRng = field(default_factory=lambda: SimRng(0))
    #: optional observer called after every charge with (context,
    #: category, charged_ns) — the continuous-monitoring hook
    on_charge: "object | None" = None
    #: optional span trace; workload bodies may open sub-spans on it
    #: via ``ctx.trace.span(...)`` (see :mod:`repro.sim.trace`)
    trace: "object | None" = None
    #: optional fault-injection context for this run (see
    #: :class:`repro.sim.faults.FaultContext`); consumers such as the
    #: PCS and the verifiers probe it for injected failures
    faults: "object | None" = None
    _run_noise: float = field(init=False, repr=False)
    _op_noise_sigma: float = field(init=False, repr=False)
    _cache_bonus: float = field(init=False, repr=False)
    #: op → (charge pattern, counter events) pricing memo; machine
    #: models are pure and the run's cache bonus is fixed, so a given
    #: op always prices the same within one context
    _price_cache: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._run_noise = self.rng.lognormal_factor(self.profile.noise_sigma)
        self._op_noise_sigma = self.profile.noise_sigma * 0.6
        self._cache_bonus = (
            self.profile.cache_hit_bonus
            if self.rng.bernoulli(self.profile.cache_hit_bonus_probability)
            else 0.0
        )
        self._price_cache = {}

    # -- internal ----------------------------------------------------

    def charge(self, category: CostCategory, nanos: float) -> float:
        """Scale ``nanos`` by simulator + noise factors, record, advance.

        Two noise terms model real measurement behaviour: a per-run
        factor (a whole trial lands "fast" or "slow" coherently) and a
        smaller per-operation factor (variation *within* a run, which
        gives Fig. 3's per-image percentile spread).

        Returns the charged (post-noise) nanoseconds.
        """
        scaled = nanos * self.profile.simulator_multiplier * self._run_noise
        if self._op_noise_sigma > 0:
            scaled *= self.rng.lognormal_factor(self._op_noise_sigma)
        self.ledger.charge(category, scaled)
        self.clock.advance(scaled)
        if self.on_charge is not None:
            self.on_charge(self, category, scaled)
        return scaled

    # -- operation pricing --------------------------------------------

    def _price(self, kind: str, args: tuple, counters: PerfCounters,
               emit: Callable[[CostCategory, float], float]) -> float:
        """The pricing rule of every op kind, shared by both executors.

        Bumps ``counters`` and hands each ``(category, raw_ns)`` charge
        to ``emit``, in per-op order: a counter bump listed after a
        charge happens after that charge's ``emit`` returns, so a
        charge observer sees the same counters whichever executor ran.
        Raw values carry the profile's per-category multipliers but
        not the simulator/noise factors (``emit`` applies those).
        Returns the sum of ``emit``'s returns.

        Compute time takes the CPU multiplier; the memory-reference
        portion takes the memory-access multiplier plus the per-miss
        surcharge (inline decryption + integrity check on line fills),
        so memory-traffic-heavy code — e.g. managed language runtimes —
        is taxed harder by TEEs than register-bound arithmetic.  Disk
        I/O pays the bounce-buffer copy and the doorbell world switch;
        a syscall pays the platform's fixed world switch.
        """
        profile = self.profile
        if kind == "cpu":
            instructions, memory_references, working_set_bytes = args
            cpu = self.machine.cpu
            hit_rate = None
            if self._cache_bonus:
                base = cpu.cache.hit_rate(working_set_bytes)
                hit_rate = min(1.0, base + self._cache_bonus)
            compute_ns, memory_ns, misses = cpu.execute_split(
                instructions,
                counters,
                memory_references=memory_references,
                working_set_bytes=working_set_bytes,
                hit_rate_override=hit_rate,
            )
            charged = emit(CostCategory.CPU,
                           compute_ns * profile.cpu_multiplier)
            mem_cost = memory_ns * profile.mem_access_multiplier
            if profile.mem_encrypted:
                mem_cost += misses * profile.mem_miss_extra_ns
            if mem_cost > 0:
                charged += emit(CostCategory.MEM_ACCESS, mem_cost)
            return charged
        if kind == "syscall":
            (base_cost_ns,) = args
            charged = emit(CostCategory.SYSCALL,
                           base_cost_ns * profile.syscall_multiplier)
            if profile.syscall_transition_ns > 0:
                counters.vm_transitions += 1
                charged += emit(CostCategory.VM_TRANSITION,
                                profile.syscall_transition_ns)
            return charged
        if kind == "mem_alloc":
            (nbytes,) = args
            raw = self.machine.memory.allocate(
                nbytes, counters,
                encrypted=profile.mem_encrypted,
                integrity=profile.mem_integrity,
            )
            return emit(CostCategory.MEM_ALLOC,
                        raw * profile.mem_alloc_multiplier)
        if kind == "mem_copy":
            (nbytes,) = args
            raw = self.machine.memory.copy(
                nbytes, counters,
                encrypted=profile.mem_encrypted,
                integrity=profile.mem_integrity,
            )
            return emit(CostCategory.MEM_ACCESS,
                        raw * profile.mem_access_multiplier)
        if kind == "disk_read" or kind == "disk_write":
            (nbytes,) = args
            if kind == "disk_read":
                charged = emit(CostCategory.IO_READ,
                               self.machine.disk.read(nbytes)
                               * profile.io_read_multiplier)
            else:
                charged = emit(CostCategory.IO_WRITE,
                               self.machine.disk.write(nbytes)
                               * profile.io_write_multiplier)
            if profile.io_bounce_per_byte_ns > 0 and nbytes > 0:
                counters.bounce_buffer_bytes += nbytes
                charged += emit(CostCategory.BOUNCE_BUFFER,
                                nbytes * profile.io_bounce_per_byte_ns)
            if profile.io_transition_ns > 0:
                counters.vm_transitions += 1
                charged += emit(CostCategory.VM_TRANSITION,
                                profile.io_transition_ns)
            return charged
        if kind == "vm_transition":
            (cost_ns,) = args
            counters.vm_transitions += 1
            return emit(CostCategory.VM_TRANSITION, cost_ns)
        if kind == "event":
            name, delta = args
            setattr(counters, name, getattr(counters, name) + delta)
            return 0.0
        category = _FLAT_KINDS.get(kind)
        if category is None:
            raise SimulationError(f"unknown op kind: {kind!r}")
        (nanos,) = args
        return emit(category, nanos)

    def cpu_execute(
        self,
        instructions: int,
        memory_references: int = 0,
        working_set_bytes: int = 0,
    ) -> float:
        """Execute a compute block; returns charged nanoseconds."""
        return self._price("cpu", (instructions, memory_references,
                                   working_set_bytes),
                           self.machine.counters, self.charge)

    def mem_alloc(self, nbytes: int) -> float:
        """Allocate memory; returns charged nanoseconds."""
        return self._price("mem_alloc", (nbytes,), self.machine.counters,
                           self.charge)

    def disk_read(self, nbytes: int) -> float:
        """Read from the block device, including TEE DMA costs."""
        return self._price("disk_read", (nbytes,), self.machine.counters,
                           self.charge)

    def disk_write(self, nbytes: int) -> float:
        """Write to the block device, including TEE DMA costs."""
        return self._price("disk_write", (nbytes,), self.machine.counters,
                           self.charge)

    def vm_transition(self, cost_ns: float) -> float:
        """An explicit world switch outside the syscall path."""
        return self._price("vm_transition", (cost_ns,),
                           self.machine.counters, self.charge)

    def charge_network(self, nanos: float) -> float:
        """Charge externally priced network time (e.g. a WAN service)."""
        return self._price("network_ns", (nanos,), self.machine.counters,
                           self.charge)

    def crypto(self, nanos: float) -> float:
        """Charge attestation/crypto work."""
        return self._price("crypto", (nanos,), self.machine.counters,
                           self.charge)

    def startup(self, nanos: float) -> float:
        """Charge bootstrap work (excluded from ratio measurements)."""
        return self._price("startup", (nanos,), self.machine.counters,
                           self.charge)

    def elapsed_ns(self, exclude_startup: bool = True) -> float:
        """Total charged time, optionally net of STARTUP.

        The paper's timing measurements exclude the launcher's runtime
        bootstrap, so ``exclude_startup`` defaults to True.
        """
        if exclude_startup:
            return self.ledger.total_excluding(CostCategory.STARTUP)
        return self.ledger.total()

    # -- batched execution --------------------------------------------

    def batch(self) -> OpBatch:
        """A fresh op batch to fill and pass to :meth:`run_batch`."""
        return OpBatch()

    def price_op(self, op: Op) -> tuple[ChargePattern, tuple]:
        """Price one op: its ordered charge pattern + counter deltas.

        The pattern lists the ``(category, raw_ns)`` pairs
        :meth:`_price` emits for the op, in order.  Counter deltas are
        ``(field, delta)`` pairs from pricing one repetition against a
        scratch bundle.
        """
        cached = self._price_cache.get(op)
        if cached is None:
            scratch = PerfCounters()
            charges: list[tuple[CostCategory, float]] = []

            def record(category: CostCategory, raw: float) -> float:
                charges.append((category, raw))
                return raw

            self._price(op.kind, op.args, scratch, record)
            cached = self._price_cache[op] = (tuple(charges),
                                              scratch.nonzero_events())
        return cached

    def replay_op(self, op: Op) -> float:
        """Execute one op charge by charge (the per-op path)."""
        return self._price(op.kind, op.args, self.machine.counters,
                           self.charge)

    def run_batch(self, batch: OpBatch) -> float:
        """Execute an op batch; returns total charged nanoseconds.

        The fast path prices each distinct op once, applies counter
        deltas with exact integer multiplication, and folds all
        charges through the accumulate kernel — byte-identical to
        :meth:`replay_op`-ing every op (see :mod:`repro.sim.opstream`
        for the contract).  When a continuous-monitoring observer is
        attached it needs clock/ledger state *between* charges, so
        execution falls back to the per-op path.
        """
        if self.on_charge is not None:
            total = 0.0
            for ops, count in batch.entries:  # confbench: allow[hot-path-per-op]
                for _ in range(count):
                    for op in ops:
                        total += self.replay_op(op)
            return total
        counters = self.machine.counters
        price = self.price_op
        program: list[tuple[ChargePattern, int]] = []
        for ops, count in batch.entries:
            pattern: list[tuple[CostCategory, float]] = []
            for op in ops:
                charges, events = price(op)
                pattern.extend(charges)
                if events:
                    counters.add_events(events, count)
            if pattern:
                program.append((tuple(pattern), count))
        return BatchLedger(
            self.ledger, self.clock,
            self.profile.simulator_multiplier, self._run_noise,
            self._op_noise_sigma, self.rng.raw_random(),
        ).run(program)
