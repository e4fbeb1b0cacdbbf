"""Batch-vs-per-op byte-identity: the op-stream kernel's contract.

Three layers of evidence that the batched kernel is *bit-identical*
to per-op charging:

1. Random op streams replayed through ``ExecContext.run_batch`` vs
   the per-op ``replay_op`` path — exact ledger/clock/counter/RNG
   equality, across noise sigmas and platform profiles.
2. The UnixBench suite's ``engine="batch"`` vs ``engine="perop"`` —
   identical scores, system index, and kernel-side state.
3. Goldens captured from the *pre-refactor* per-op implementation —
   full trial-runner artifacts (result dicts, metrics snapshots,
   Chrome traces) must reproduce byte-for-byte, serial and with two
   worker processes.  The same check pins the attestation,
   supply-chain and cluster scenario bodies.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import TrialPlan
from repro.core.runner import TrialRunner
from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel
from repro.hw.machine import xeon_gold_5515
from repro.obs.export import TraceExporter
from repro.sim.opstream import Op
from repro.sim.rng import SimRng
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


PROFILES = {
    "noisy-tee": CostProfile(simulator_multiplier=1.8, noise_sigma=0.03,
                             syscall_transition_ns=2_200.0,
                             halt_transition_ns=2_200.0,
                             io_transition_ns=3_000.0,
                             io_bounce_per_byte_ns=0.05,
                             mem_encrypted=True, mem_miss_extra_ns=20.0),
    "quiet-native": CostProfile(noise_sigma=0.0),
}


class TestRandomOpStreams:
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
                kernel.syscall_count, kernel.scheduler.switch_count,
                context_state(ctx),
            )
        assert results["batch"] == results["perop"]


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
