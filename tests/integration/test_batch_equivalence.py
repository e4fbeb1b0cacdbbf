"""Batch-vs-per-op byte-identity: the op-stream kernel's contract.

Three layers of evidence that the batched kernel is *bit-identical*
to per-op charging:

1. Op streams replayed through ``ExecContext.run_batch`` vs the
   per-op path — exact ledger/clock/counter/RNG equality, on
   hypothesis-generated programs over every op kind, noise sigma and
   registry profile, with and without a charge observer attached.
2. The UnixBench suite's ``engine="batch"`` vs ``engine="perop"`` —
   identical scores, system index, and kernel-side state.
3. Goldens captured from the *pre-refactor* per-op implementation —
   full trial-runner artifacts (result dicts, metrics snapshots,
   Chrome traces) must reproduce byte-for-byte, serial and with two
   worker processes.  The same check pins the attestation,
   supply-chain and cluster scenario bodies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TrialPlan
from repro.core.launcher import FunctionLauncher
from repro.core.runner import TrialRunner
from repro.core.timeseries import ContinuousMonitor
from repro.errors import GuestOsError
from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel
from repro.guestos.syscalls import SyscallKind, base_cost_ns
from repro.hw.machine import xeon_gold_5515
from repro.obs.export import TraceExporter
from repro.sim.opstream import Op
from repro.sim.rng import SimRng
from repro.tee.registry import available_platforms, platform_by_name
from repro.workloads.faas import workload_by_name
from repro.workloads.unixbench.suite import run_unixbench

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"

#: Op generator table for the randomized streams: (kind, argument
#: factory given a SimRng).
_OP_MAKERS = (
    lambda rng: Op("cpu", (rng.randint(10, 50_000), rng.randint(0, 5_000),
                           rng.randint(0, 1 << 20))),
    lambda rng: Op("mem_alloc", (rng.randint(1, 1 << 20),)),
    lambda rng: Op("mem_copy", (rng.randint(1, 1 << 18),)),
    lambda rng: Op("disk_read", (rng.randint(1, 1 << 16),)),
    lambda rng: Op("disk_write", (rng.randint(1, 1 << 16),)),
    lambda rng: Op("syscall", (float(rng.randint(100, 900)),)),
    lambda rng: Op("vm_transition", (float(rng.randint(1_000, 9_000)),)),
    lambda rng: Op("crypto", (float(rng.randint(50, 5_000)),)),
    lambda rng: Op("event", ("context_switches", 1)),
    lambda rng: Op("network_ns", (float(rng.randint(1_000, 90_000)),)),
    lambda rng: Op("startup", (float(rng.randint(1_000, 90_000)),)),
)


def make_ctx(profile: CostProfile, seed: int) -> ExecContext:
    return ExecContext(machine=xeon_gold_5515(), profile=profile,
                       rng=SimRng(seed))


def random_program(seed: int, entries: int) -> list[tuple[tuple[Op, ...], int]]:
    """A reproducible random (op sequence, count) program."""
    rng = SimRng(seed, "opstream-fuzz")
    program = []
    for _ in range(entries):
        ops = tuple(_OP_MAKERS[rng.randint(0, len(_OP_MAKERS) - 1)](rng)
                    for _ in range(rng.randint(1, 4)))
        program.append((ops, rng.randint(1, 40)))
    return program


def context_state(ctx: ExecContext) -> tuple:
    """Everything per-op charging mutates, in comparable form."""
    return (
        dict(ctx.ledger),                      # totals AND insertion order
        list(ctx.ledger),
        ctx.clock.now(),
        ctx.machine.counters.as_dict(),
        ctx.rng.raw_random().getstate(),       # stream position + pair cache
        ctx.rng.raw_random().gauss_next,
    )


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: The public per-op method each op kind replays through (``mem_copy``,
#: ``syscall`` and ``event`` have none; they go through ``replay_op``).
PUBLIC_METHODS = {
    "cpu": ExecContext.cpu_execute,
    "mem_alloc": ExecContext.mem_alloc,
    "disk_read": ExecContext.disk_read,
    "disk_write": ExecContext.disk_write,
    "vm_transition": ExecContext.vm_transition,
    "crypto": ExecContext.crypto,
    "network_ns": ExecContext.charge_network,
    "startup": ExecContext.startup,
}


def replay_public(ctx: ExecContext, program) -> list[float]:
    """Run a program op by op through the public methods; their returns."""
    returns = []
    for ops, count in program:
        for _ in range(count):
            for op in ops:
                method = PUBLIC_METHODS.get(op.kind)
                returns.append(ctx.replay_op(op) if method is None
                               else method(ctx, *op.args))
    return returns


def opstream_pricing_golden() -> str:
    """Per-op pricing of the random programs under every registry profile."""
    cases = {}
    for platform in available_platforms():
        for secure in (True, False):
            profile = platform_by_name(platform).profile_for(secure)
            for seed in (3, 17, 4242):
                ctx = make_ctx(profile, seed)
                returns = replay_public(ctx, random_program(seed, entries=30))
                ledger, _, now, counters, rng_state, gauss_next = (
                    context_state(ctx))
                cases[f"{platform}/{'secure' if secure else 'normal'}/{seed}"] = {
                    "ledger": [[category.value, nanos]
                               for category, nanos in ledger.items()],
                    "clock": now,
                    "counters": counters,
                    "rng_sha256": _digest(rng_state),
                    "gauss_next": gauss_next,
                    "returns": len(returns),
                    "returns_sha256": _digest(returns),
                }
    return json.dumps(cases, sort_keys=True, indent=1) + "\n"


#: Monitored runs: (workload, sample interval in ns, body factory).
MONITORED_RUNS = (
    ("iostress", 5_000.0, lambda: FunctionLauncher.for_language("python")
     .launch(workload_by_name("iostress"), {"file_bytes": 65536, "files": 4})),
    ("pipe_ping_pong", 2_000.0, lambda: lambda kernel: kernel.pipe_ping_pong(80)),
)


def monitor_samples_golden() -> str:
    """``ContinuousMonitor`` series of monitored runs on three platforms.

    A series runs to tens of thousands of samples, so each sample field
    is pinned by a digest over the whole series, next to the first and
    last sample in full.
    """
    cases = {}
    for platform in ("tdx", "sev-snp", "cca"):
        for name, interval_ns, make_body in MONITORED_RUNS:
            vm = platform_by_name(platform, seed=6).create_vm()
            vm.boot()
            monitor = ContinuousMonitor(interval_ns=interval_ns)
            vm.run(monitor.wrap(make_body()), name=name)
            samples = [
                {**vars(sample),
                 "cost_breakdown": list(sample.cost_breakdown.items())}
                for sample in monitor.series.samples
            ]
            cases[f"{platform}/{name}"] = {
                "samples": len(samples),
                "sha256": {field: _digest([sample[field] for sample in samples])
                           for field in samples[0]},
                "first": samples[0],
                "last": samples[-1],
            }
    return json.dumps(cases, sort_keys=True, indent=1) + "\n"


PROFILES = {
    "noisy-tee": CostProfile(simulator_multiplier=1.8, noise_sigma=0.03,
                             syscall_transition_ns=2_200.0,
                             halt_transition_ns=2_200.0,
                             io_transition_ns=3_000.0,
                             io_bounce_per_byte_ns=0.05,
                             mem_encrypted=True, mem_miss_extra_ns=20.0),
    "quiet-native": CostProfile(noise_sigma=0.0),
}


#: Every registry platform's secure and normal profile.
REGISTRY_PROFILES = [
    platform_by_name(platform).profile_for(secure)
    for platform in available_platforms() for secure in (True, False)
]

_SIZES = st.integers(0, 1 << 20)
_NANOS = st.floats(0.0, 1e6)

#: One strategy per op kind; all 11 kinds the pricing rule knows.
OP_STRATEGIES = {
    "cpu": st.tuples(st.integers(0, 50_000), st.integers(0, 5_000), _SIZES),
    "mem_alloc": st.tuples(_SIZES),
    "mem_copy": st.tuples(_SIZES),
    "disk_read": st.tuples(st.integers(0, 1 << 16)),
    "disk_write": st.tuples(st.integers(0, 1 << 16)),
    "syscall": st.tuples(_NANOS),
    "vm_transition": st.tuples(_NANOS),
    "crypto": st.tuples(_NANOS),
    "network_ns": st.tuples(_NANOS),
    "startup": st.tuples(_NANOS),
    "event": st.tuples(st.sampled_from(("context_switches", "page_faults")),
                       st.integers(0, 3)),
}
OPS = st.one_of([st.builds(Op, st.just(kind), args)
                 for kind, args in OP_STRATEGIES.items()])
PROGRAMS = st.lists(
    st.tuples(st.lists(OPS, min_size=1, max_size=4).map(tuple),
              st.integers(0, 40)),
    max_size=12,
)
#: A registry profile with its noise sigma set to zero or kept (> 0).
NOISE_PROFILES = st.builds(
    lambda profile, quiet: (dataclasses.replace(profile, noise_sigma=0.0)
                            if quiet else profile),
    st.sampled_from(REGISTRY_PROFILES), st.booleans(),
)


def run_batched(ctx: ExecContext, program) -> None:
    batch = ctx.batch()
    for ops, count in program:
        batch.add_seq(ops, count)
    ctx.run_batch(batch)


def recording_observer(log: list):
    """A charge observer that logs what it sees at each charge."""
    def observe(ctx, category, charged_ns):
        log.append((category, charged_ns, ctx.clock.now(),
                    ctx.machine.counters.as_dict()))
    return observe


class TestRandomOpStreams:
    @settings(max_examples=150, deadline=None)
    @given(program=PROGRAMS, profile=NOISE_PROFILES,
           seed=st.integers(0, 2**32 - 1))
    def test_generated_batch_equals_per_op_replay(self, program, profile,
                                                  seed):
        per_op = make_ctx(profile, seed)
        replay_public(per_op, program)
        batched = make_ctx(profile, seed)
        run_batched(batched, program)
        assert context_state(batched) == context_state(per_op)

    @settings(max_examples=100, deadline=None)
    @given(program=PROGRAMS, profile=NOISE_PROFILES,
           seed=st.integers(0, 2**32 - 1))
    def test_observed_batch_equals_observed_per_op_replay(self, program,
                                                          profile, seed):
        # an attached observer sees clock, ledger and counters between
        # charges; both executors must show it the same states
        seen = {}
        for executor in ("per_op", "batch"):
            ctx = make_ctx(profile, seed)
            seen[executor] = []
            ctx.on_charge = recording_observer(seen[executor])
            if executor == "per_op":
                replay_public(ctx, program)
            else:
                run_batched(ctx, program)
            seen[executor].append(context_state(ctx))
        assert seen["batch"] == seen["per_op"]

    # fixed programs: the ones the opstream_pricing golden replays
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    @pytest.mark.parametrize("seed", [3, 17, 4242])
    def test_batch_equals_per_op_replay(self, profile_name, seed):
        profile = PROFILES[profile_name]
        program = random_program(seed, entries=30)

        per_op = make_ctx(profile, seed)
        for ops, count in program:
            for _ in range(count):
                for op in ops:
                    per_op.replay_op(op)

        batched = make_ctx(profile, seed)
        batch = batched.batch()
        for ops, count in program:
            batch.add_seq(ops, count)
        batched.run_batch(batch)

        assert context_state(batched) == context_state(per_op)

    def test_batched_and_per_op_charges_interleave_on_one_stream(self):
        profile = PROFILES["noisy-tee"]
        program = random_program(7, entries=10)

        reference = make_ctx(profile, 7)
        for ops, count in program:
            for _ in range(count):
                for op in ops:
                    reference.replay_op(op)

        mixed = make_ctx(profile, 7)
        for index, (ops, count) in enumerate(program):
            if index % 2:                       # alternate engines mid-stream
                batch = mixed.batch()
                batch.add_seq(ops, count)
                mixed.run_batch(batch)
            else:
                for _ in range(count):
                    for op in ops:
                        mixed.replay_op(op)

        assert context_state(mixed) == context_state(reference)


class TestPerOpGoldens:
    """Per-op charging pinned before its pricing rule was shared with
    the batch path: public-method returns and context state, and the
    samples a charge observer sees between charges (counter bumps
    interleave with charges in per-op order)."""

    @pytest.mark.parametrize("name, build", [
        ("opstream_pricing", opstream_pricing_golden),
        ("monitor_samples", monitor_samples_golden),
    ], ids=["opstream_pricing", "monitor_samples"])
    def test_reproduces_byte_for_byte(self, name, build):
        golden_path = GOLDEN_DIR / f"{name}.json"
        assert build() == golden_path.read_text(encoding="utf-8"), (
            f"{golden_path.name} no longer reproduces byte-for-byte")


class TestUnixbenchEngines:
    def test_batch_engine_matches_per_op_engine(self):
        results = {}
        for engine in ("batch", "perop"):
            profile = CostProfile(simulator_multiplier=1.6, noise_sigma=0.02,
                                  syscall_transition_ns=2_200.0,
                                  halt_transition_ns=2_200.0,
                                  io_transition_ns=3_000.0,
                                  io_bounce_per_byte_ns=0.05,
                                  mem_encrypted=True, mem_miss_extra_ns=20.0)
            ctx = make_ctx(profile, 11)
            kernel = GuestKernel(ctx)
            suite = run_unixbench(kernel, scale=0.1, engine=engine)
            results[engine] = (
                suite.scores, suite.system_index,
                context_state(ctx),
            )
        assert results["batch"] == results["perop"]


#: Generated kernel calls: ``(name, *drawn args)``.
_CALL_SIZES = st.integers(0, 1 << 14)
KERNEL_CALLS = st.one_of(
    st.tuples(st.sampled_from(("getpid", "create", "mkdir", "stat",
                               "unlink", "rmdir", "fork", "exec", "exit",
                               "wait", "context_switch"))),
    st.tuples(st.sampled_from(("write", "pipe_write", "pipe_read")),
              _CALL_SIZES),
    st.tuples(st.just("read"), _CALL_SIZES, st.booleans()),
)

#: Platform cost terms switched on and off independently.
KERNEL_PROFILES = st.builds(
    lambda transitions, bounce, encrypted, noisy: CostProfile(
        simulator_multiplier=1.4,
        noise_sigma=0.02 if noisy else 0.0,
        syscall_transition_ns=2_200.0 if transitions else 0.0,
        halt_transition_ns=3_100.0 if transitions else 0.0,
        io_transition_ns=3_000.0 if transitions else 0.0,
        io_bounce_per_byte_ns=0.05 if bounce else 0.0,
        mem_encrypted=encrypted, mem_integrity=encrypted,
        mem_miss_extra_ns=20.0 if encrypted else 0.0),
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
)


def kernel_with_fixtures(ctx: ExecContext, calls: int) -> GuestKernel:
    """A kernel on which every generated call succeeds: a data file,
    a file and an empty directory per call to remove, and a running and
    a zombie child per call to exit and to reap.  Set up uncharged."""
    kernel = GuestKernel(ctx)
    kernel.fs.create("/data")
    kernel.fs.write("/data", b"d" * (1 << 14), None)
    for index in range(calls):
        kernel.fs.create(f"/u{index}")
        kernel.fs.mkdir(f"/r{index}")
        kernel.processes.fork(1)
        kernel.processes.exit(kernel.processes.fork(1).pid, 0)
    return kernel


def run_per_op(kernel: GuestKernel, program) -> list:
    """Make each call through ``sys_*``; returns the charge sizes seen."""
    pipe = kernel.make_pipe()
    running = list(range(2, 2 + 2 * len(program), 2))   # fixture children
    sizes = []
    for index, (name, *args) in enumerate(program):
        size = None
        if name == "getpid":
            kernel.sys_getpid()
        elif name == "create":
            kernel.sys_create(f"/c{index}")
        elif name == "mkdir":
            kernel.sys_mkdir(f"/m{index}")
        elif name == "stat":
            kernel.sys_stat("/data")
        elif name == "unlink":
            kernel.sys_unlink(f"/u{index}")
        elif name == "rmdir":
            kernel.sys_rmdir(f"/r{index}")
        elif name == "fork":
            kernel.sys_fork("child")
        elif name == "exec":
            kernel.sys_exec(1, "/bin/prog")
        elif name == "exit":
            kernel.sys_exit(running.pop(), 0)
        elif name == "wait":
            kernel.sys_wait()
        elif name == "context_switch":
            kernel.context_switch()
        elif name == "write":
            size = kernel.sys_write("/data", b"w" * args[0])
        elif name == "read":
            size = len(kernel.sys_read("/data", 0, args[0], cached=args[1]))
        elif name == "pipe_write":
            size = kernel.sys_pipe_write(pipe, b"p" * args[0])
        else:
            size = len(kernel.sys_pipe_read(pipe, args[0]))
        sizes.append(size)
    return sizes


class TestKernelCallPrograms:
    """Batch = per-op on generated syscall programs: ``sys_*`` charge
    exactly the :class:`KernelOps` of the same calls."""

    @settings(max_examples=120, deadline=None)
    @given(program=st.lists(KERNEL_CALLS, min_size=1, max_size=30),
           profile=KERNEL_PROFILES, seed=st.integers(0, 2**32 - 1))
    def test_per_op_calls_equal_one_batch_of_their_ops(self, program,
                                                       profile, seed):
        per_op = make_ctx(profile, seed)
        sizes = run_per_op(kernel_with_fixtures(per_op, len(program)),
                           program)

        batched = make_ctx(profile, seed)
        kb = GuestKernel(batched).batch()
        seq = kb.seq()
        for (name, *args), size in zip(program, sizes):
            if name == "read":
                seq.read(size, cached=args[1])
            elif size is not None:
                getattr(seq, name)(size)
            else:
                getattr(seq, name)()
        kb.repeat(seq)
        kb.commit()

        assert context_state(per_op) == context_state(batched)

    @pytest.mark.parametrize("call, kind", [
        ("sys_stat", SyscallKind.STAT),
        ("sys_unlink", SyscallKind.UNLINK),
        ("sys_rmdir", SyscallKind.RMDIR),
    ])
    def test_failing_syscall_charges_only_its_entry(self, call, kind):
        profile = PROFILES["noisy-tee"]
        ctx = make_ctx(profile, 5)
        with pytest.raises(GuestOsError):
            getattr(GuestKernel(ctx), call)("/missing")

        entry_only = make_ctx(profile, 5)
        entry_only.replay_op(Op("syscall", (base_cost_ns(kind),)))
        assert context_state(ctx) == context_state(entry_only)


def canonical_artifacts(runner: TrialRunner, results) -> str:
    payload = {
        "results": [result.to_dict() for result in results],
        "metrics": runner.metrics.snapshot(),
        "chrome": TraceExporter.from_history(runner.history).to_chrome_json(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


GOLDEN_PLANS = {
    # captured from the per-op implementation before the batch kernel
    # landed (see tests/goldens/); params deliberately include every
    # batched emitter family
    "perop_unixbench": dict(kind="unixbench", platforms=("tdx", "cca"),
                            workloads=("unixbench",), trials=2, seed=7,
                            params={"scale": 0.2}),
    "perop_faas": dict(kind="faas", platforms=("tdx",),
                       workloads=("logging", "iostress", "htmlrender",
                                  "memstress"),
                       runtimes=("python",), trials=2, seed=7),
    # the other 21 figure functions, pinned before their pure kernels
    # were split from the bodies; node's JIT warmup and GC make the
    # charges sensitive to call order
    "faas_kernels": dict(kind="faas", platforms=("tdx",),
                         workloads=("cpustress", "factors", "ack",
                                    "fibonacci", "primes", "mandelbrot",
                                    "nbody", "spectralnorm", "fannkuch",
                                    "matrix", "binarytrees", "sort",
                                    "stringconcat", "wordcount",
                                    "jsonserde", "filesystem", "base64",
                                    "checksum", "compression", "shahash",
                                    "graphbfs"),
                         runtimes=("node",), trials=1, seed=7),
    # pinned before runs of identical session calls were recorded in
    # closed form: a JIT crossing or a GC falls inside a run of
    # logging messages or htmlrender rows under these runtimes
    "faas_runs": dict(kind="faas", platforms=("tdx",),
                      workloads=("logging", "htmlrender"),
                      runtimes=("luajit", "ruby", "node"), trials=2, seed=7),
    "perop_ml": dict(kind="ml", platforms=("sev-snp",),
                     workloads=("inference",), trials=1, seed=7,
                     params={"count": 8, "side": 96}),
    # the attestation, supply-chain and cluster scenario bodies, pinned
    # before they moved out of the runner into repro.core.scenarios
    "attestation_tdx": dict(kind="attestation", platforms=("tdx",),
                            workloads=("tdx-attestation",), trials=2,
                            seed=7, secure_modes=(True,),
                            params={"infra_seed": 7}),
    "attestation_snp": dict(kind="attestation", platforms=("sev-snp",),
                            workloads=("snp-attestation",), trials=2,
                            seed=7, secure_modes=(True,),
                            params={"infra_seed": 7}),
    "attestation_service_tdx": dict(kind="attestation-service",
                                    platforms=("tdx",),
                                    workloads=("tdx-attestation",),
                                    trials=1, seed=7, secure_modes=(True,),
                                    params={"infra_seed": 7}),
    "attestation_service_snp": dict(kind="attestation-service",
                                    platforms=("sev-snp",),
                                    workloads=("snp-attestation",),
                                    trials=1, seed=7, secure_modes=(True,),
                                    params={"infra_seed": 7}),
    "supplychain_lazy_secure": dict(kind="supplychain", platforms=("tdx",),
                                    workloads=("lazy-secure",), trials=1,
                                    seed=7, secure_modes=(True,),
                                    params={"vms": 2, "accesses": 3}),
    "supplychain_eager_normal": dict(kind="supplychain", platforms=("tdx",),
                                     workloads=("eager-normal",), trials=1,
                                     seed=7, secure_modes=(False,),
                                     params={"vms": 2, "accesses": 3}),
    "cluster_small": dict(kind="cluster", platforms=("tdx",),
                          workloads=("poisson",), trials=1, seed=7,
                          secure_modes=(True,),
                          params={"hosts": 4, "requests": 2000}),
}


class TestPreRefactorGoldens:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "j2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
    def test_artifacts_reproduce_byte_for_byte(self, name, jobs):
        golden_path = GOLDEN_DIR / f"{name}.json"
        golden = golden_path.read_text(encoding="utf-8")
        plan = TrialPlan.matrix(**GOLDEN_PLANS[name])
        runner = TrialRunner(jobs=jobs)
        produced = canonical_artifacts(runner, runner.run(plan))
        assert produced == golden, (
            f"{golden_path.name} no longer reproduces byte-for-byte "
            f"(jobs={jobs}); the trial pipeline's output for this plan "
            "changed"
        )
