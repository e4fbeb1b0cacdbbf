"""Tests for the execution context and guest kernel cost accounting."""

import pytest

from repro.errors import GuestOsError, SimulationError
from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel, KernelOps
from repro.guestos.process import INIT_PID
from repro.guestos.syscalls import SyscallKind, base_cost_ns
from repro.hw.machine import xeon_gold_5515
from repro.sim.ledger import CostCategory
from repro.sim.opstream import Op
from repro.sim.rng import SimRng


def make_ctx(profile: CostProfile | None = None, seed: int = 1) -> ExecContext:
    return ExecContext(
        machine=xeon_gold_5515(),
        profile=profile if profile is not None else CostProfile(noise_sigma=0.0),
        rng=SimRng(seed),
    )


class TestExecContext:
    def test_charge_advances_clock_and_ledger(self):
        ctx = make_ctx()
        ctx.charge(CostCategory.CPU, 100.0)
        assert ctx.clock.now() == pytest.approx(100.0)
        assert ctx.ledger.get(CostCategory.CPU) == pytest.approx(100.0)

    def test_cpu_multiplier_applies(self):
        base = make_ctx(CostProfile(noise_sigma=0.0))
        scaled = make_ctx(CostProfile(cpu_multiplier=2.0, noise_sigma=0.0))
        base.cpu_execute(10_000)
        scaled.cpu_execute(10_000)
        assert scaled.ledger.total() == pytest.approx(base.ledger.total() * 2.0)

    def test_simulator_multiplier_scales_everything(self):
        plain = make_ctx(CostProfile(noise_sigma=0.0))
        simulated = make_ctx(CostProfile(simulator_multiplier=3.0, noise_sigma=0.0))
        plain.disk_read(1024)
        simulated.disk_read(1024)
        assert simulated.ledger.total() == pytest.approx(plain.ledger.total() * 3.0)

    def test_bounce_buffer_charged_on_io(self):
        ctx = make_ctx(CostProfile(io_bounce_per_byte_ns=0.5, noise_sigma=0.0))
        ctx.disk_write(1000)
        assert ctx.ledger.get(CostCategory.BOUNCE_BUFFER) == pytest.approx(500.0)
        assert ctx.machine.counters.bounce_buffer_bytes == 1000

    def test_no_bounce_without_profile(self):
        ctx = make_ctx()
        ctx.disk_write(1000)
        assert ctx.ledger.get(CostCategory.BOUNCE_BUFFER) == 0.0

    def test_syscall_transition_counted(self):
        ctx = make_ctx(CostProfile(syscall_transition_ns=4000.0, noise_sigma=0.0))
        ctx.replay_op(Op("syscall", (300.0,)))
        assert ctx.ledger.get(CostCategory.VM_TRANSITION) == pytest.approx(4000.0)
        assert ctx.machine.counters.vm_transitions == 1

    def test_native_syscall_has_no_transition(self):
        ctx = make_ctx()
        ctx.replay_op(Op("syscall", (300.0,)))
        assert ctx.ledger.get(CostCategory.VM_TRANSITION) == 0.0

    def test_elapsed_excludes_startup(self):
        ctx = make_ctx()
        ctx.startup(1_000_000)
        ctx.cpu_execute(1000)
        assert ctx.elapsed_ns() < 1_000_000
        assert ctx.elapsed_ns(exclude_startup=False) > 1_000_000

    def test_run_noise_reproducible_per_seed(self):
        profile = CostProfile(noise_sigma=0.2)
        a = ExecContext(machine=xeon_gold_5515(), profile=profile, rng=SimRng(5))
        b = ExecContext(machine=xeon_gold_5515(), profile=profile, rng=SimRng(5))
        a.cpu_execute(10_000)
        b.cpu_execute(10_000)
        assert a.ledger.total() == b.ledger.total()

    def test_run_noise_varies_across_seeds(self):
        profile = CostProfile(noise_sigma=0.2)
        totals = set()
        for seed in range(5):
            ctx = ExecContext(machine=xeon_gold_5515(), profile=profile,
                              rng=SimRng(seed))
            ctx.cpu_execute(10_000)
            totals.add(ctx.ledger.total())
        assert len(totals) == 5

    def test_cache_bonus_speeds_up_memory_bound_run(self):
        bonus_profile = CostProfile(
            cache_hit_bonus_probability=1.0, cache_hit_bonus=0.5, noise_sigma=0.0
        )
        plain = make_ctx()
        lucky = make_ctx(bonus_profile)
        working_set = 40 * plain.machine.cpu.cache.size_bytes
        plain.cpu_execute(1000, memory_references=100_000,
                          working_set_bytes=working_set)
        lucky.cpu_execute(1000, memory_references=100_000,
                          working_set_bytes=working_set)
        assert lucky.ledger.total() < plain.ledger.total()

    @pytest.mark.parametrize("executor", ["per_op", "batch"])
    def test_infinite_charge_rejected_before_ledger_or_clock_change(
            self, executor):
        ctx = make_ctx(CostProfile(noise_sigma=0.02))
        ctx.crypto(50.0)
        before = (ctx.ledger.breakdown(), ctx.clock.now())
        with pytest.raises(SimulationError):
            if executor == "per_op":
                ctx.crypto(float("inf"))
            else:
                batch = ctx.batch()
                batch.add(Op("crypto", (float("inf"),)), 3)
                ctx.run_batch(batch)
        assert (ctx.ledger.breakdown(), ctx.clock.now()) == before

    def test_mem_alloc_encrypted_costs_more(self):
        plain = make_ctx()
        secure = make_ctx(CostProfile(mem_encrypted=True, mem_integrity=True,
                                      noise_sigma=0.0))
        plain.mem_alloc(1 << 20)
        secure.mem_alloc(1 << 20)
        assert secure.ledger.total() > plain.ledger.total()


class TestGuestKernel:
    def make_kernel(self, profile: CostProfile | None = None) -> GuestKernel:
        return GuestKernel(make_ctx(profile))

    def test_getpid(self):
        kernel = self.make_kernel()
        assert kernel.sys_getpid() == 1
        assert kernel.ctx.ledger.get(CostCategory.SYSCALL) > 0

    def test_file_write_read_round_trip(self):
        kernel = self.make_kernel()
        kernel.sys_create("/data")
        kernel.sys_write("/data", b"payload")
        assert kernel.sys_read("/data") == b"payload"

    def test_write_charges_io_and_memory(self):
        kernel = self.make_kernel()
        kernel.sys_create("/f")
        kernel.sys_write("/f", b"x" * 4096)
        ledger = kernel.ctx.ledger
        assert ledger.get(CostCategory.IO_WRITE) > 0
        assert ledger.get(CostCategory.MEM_ACCESS) > 0
        assert ledger.get(CostCategory.SYSCALL) > 0

    def test_stat(self):
        kernel = self.make_kernel()
        kernel.sys_create("/f")
        kernel.sys_write("/f", b"abc")
        info = kernel.sys_stat("/f")
        assert info == {"is_dir": False, "size": 3}

    def test_stat_missing_raises(self):
        with pytest.raises(GuestOsError):
            self.make_kernel().sys_stat("/nope")

    def test_mkdir_rmdir_unlink_flow(self):
        kernel = self.make_kernel()
        kernel.sys_mkdir("/d")
        kernel.sys_create("/d/f")
        kernel.sys_write("/d/f", b"12")
        assert kernel.sys_unlink("/d/f") == 2
        kernel.sys_rmdir("/d")
        assert not kernel.fs.exists("/d")

    def test_fork_and_wait_default_to_init(self):
        kernel = self.make_kernel()
        child = kernel.sys_fork()
        assert child.parent_pid == INIT_PID
        kernel.sys_exit(child.pid, 3)
        assert kernel.sys_wait() == (child.pid, 3)

    def test_fork_exec_exit_wait(self):
        kernel = self.make_kernel()
        child = kernel.sys_fork("worker")
        kernel.sys_exec(child.pid, "/bin/task")
        kernel.sys_exit(child.pid, 9)
        pid, code = kernel.sys_wait()
        assert (pid, code) == (child.pid, 9)

    def test_pipe_ping_pong_moves_bytes(self):
        kernel = self.make_kernel()
        moved = kernel.pipe_ping_pong(rounds=10, payload=128)
        assert moved == 1280
        assert kernel.ctx.machine.counters.context_switches == 20

    def test_pipe_ping_pong_rejects_negative(self):
        with pytest.raises(GuestOsError):
            self.make_kernel().pipe_ping_pong(-1)

    def test_context_switch_transitions_on_tee(self):
        tee_profile = CostProfile(halt_transition_ns=4000.0, noise_sigma=0.0)
        native = self.make_kernel()
        secure = self.make_kernel(tee_profile)
        native.pipe_ping_pong(rounds=50)
        secure.pipe_ping_pong(rounds=50)
        assert secure.ctx.machine.counters.vm_transitions > 0
        assert native.ctx.machine.counters.vm_transitions == 0
        assert secure.ctx.elapsed_ns() > native.ctx.elapsed_ns()

    def test_context_switch_counter(self):
        kernel = self.make_kernel()
        kernel.context_switch()
        assert kernel.ctx.machine.counters.context_switches == 1


#: Size arguments for the KernelOps syscall methods that take one.
_SYSCALL_ARGS = {
    SyscallKind.READ: (4096,),
    SyscallKind.WRITE: (4096,),
    SyscallKind.PIPE_READ: (512,),
    SyscallKind.PIPE_WRITE: (512,),
}


class TestKernelOps:
    @pytest.mark.parametrize("kind", list(SyscallKind), ids=lambda k: k.value)
    def test_each_syscall_starts_with_its_one_entry(self, kind):
        ops = getattr(KernelOps(0.0), kind.value)(
            *_SYSCALL_ARGS.get(kind, ())).ops
        assert ops[0] == Op("syscall", (base_cost_ns(kind),))
        assert [op.kind for op in ops].count("syscall") == 1

    @pytest.mark.parametrize("method", ["create", "mkdir", "unlink", "rmdir"])
    def test_namespace_update_journals_one_block(self, method):
        ops = getattr(KernelOps(0.0), method)().ops
        assert ops[1:] == [Op("disk_write", (4096,))]

    def test_cached_read_skips_block_io(self):
        cold = KernelOps(0.0).read(100).ops
        warm = KernelOps(0.0).read(100, cached=True).ops
        assert [op.kind for op in cold[1:]] == ["disk_read", "mem_copy"]
        assert warm[1:] == [Op("mem_copy", (100,))]

    def test_context_switch_halts_only_on_tee(self):
        native = KernelOps(0.0).context_switch().ops
        secure = KernelOps(4000.0).context_switch().ops
        assert secure[:len(native)] == native
        assert "vm_transition" not in [op.kind for op in native]
        assert secure[len(native):] == [Op("vm_transition", (4000.0,))]

    def test_methods_chain_in_call_order(self):
        seq = KernelOps(0.0).fork().exit().wait()
        entries = [op for op in seq.ops if op.kind == "syscall"]
        assert entries == [Op("syscall", (base_cost_ns(kind),))
                           for kind in (SyscallKind.FORK, SyscallKind.EXIT,
                                        SyscallKind.WAIT)]
