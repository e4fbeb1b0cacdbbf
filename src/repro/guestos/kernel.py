"""The guest kernel: syscall dispatch with cost accounting.

``GuestKernel`` is the facade workloads talk to.  Every syscall:

1. charges the native base cost times the platform's syscall
   multiplier (kernel entry/exit),
2. charges the platform's world-switch cost (TDCALL/SEAMCALL on TDX,
   VMEXIT/VMRUN on SEV-SNP, RMM calls on CCA) when one applies,
3. performs the functional operation (filesystem mutation, process
   table update, pipe transfer), and
4. charges data-dependent hardware costs (disk traffic, memory copies,
   bounce buffers) through the :class:`~repro.guestos.context.ExecContext`.

Context switches deserve a note: blocking pipe reads/writes sleep and
wake processes, and on confidential VMs each sleep/wake is a world
switch.  That mechanism — frequent transitions rather than raw compute
slowdown — is why UnixBench shows the largest overheads in the paper.
"""

from __future__ import annotations

from repro.errors import GuestOsError
from repro.guestos.context import ExecContext
from repro.guestos.filesystem import InMemoryFileSystem
from repro.guestos.pipes import Pipe
from repro.guestos.process import Process, ProcessTable
from repro.guestos.scheduler import CONTEXT_SWITCH_NS, RoundRobinScheduler
from repro.guestos.syscalls import SyscallKind, base_cost_ns
from repro.sim.opstream import Op


class KernelOps:
    """Records the charge pattern of one kernel-op sequence.

    Each method appends the exact ops the corresponding ``sys_*``
    method would charge (syscall entry, disk traffic, memory copies),
    without performing the functional operation — the caller does
    functional work separately, then hands the sequence to
    :meth:`KernelBatch.repeat` with an iteration count.  Methods
    return ``self`` for chaining.
    """

    __slots__ = ("ops", "syscalls", "switches", "_halt_ns")

    def __init__(self, halt_transition_ns: float) -> None:
        self.ops: list[Op] = []
        self.syscalls = 0
        self.switches = 0
        self._halt_ns = halt_transition_ns

    def syscall(self, kind: SyscallKind) -> "KernelOps":
        """Kernel entry for ``kind`` (what :meth:`GuestKernel._enter` charges)."""
        self.syscalls += 1
        self.ops.append(Op("syscall", (base_cost_ns(kind),)))
        return self

    def read(self, nbytes: int, cached: bool = False) -> "KernelOps":
        """Charges of ``sys_read`` returning ``nbytes``."""
        self.syscall(SyscallKind.READ)
        if not cached:
            self.ops.append(Op("disk_read", (nbytes,)))
        self.ops.append(Op("mem_copy", (nbytes,)))
        return self

    def write(self, nbytes: int) -> "KernelOps":
        """Charges of ``sys_write`` accepting ``nbytes``."""
        self.syscall(SyscallKind.WRITE)
        self.ops.append(Op("mem_copy", (nbytes,)))
        self.ops.append(Op("disk_write", (nbytes,)))
        return self

    def pipe_write(self, nbytes: int) -> "KernelOps":
        """Charges of ``sys_pipe_write`` accepting ``nbytes``."""
        self.syscall(SyscallKind.PIPE_WRITE)
        self.ops.append(Op("mem_copy", (nbytes,)))
        return self

    def pipe_read(self, nbytes: int) -> "KernelOps":
        """Charges of ``sys_pipe_read`` returning ``nbytes``."""
        self.syscall(SyscallKind.PIPE_READ)
        self.ops.append(Op("mem_copy", (nbytes,)))
        return self

    def fork(self) -> "KernelOps":
        """Charges of ``sys_fork`` (COW page-table setup)."""
        self.syscall(SyscallKind.FORK)
        self.ops.append(Op("mem_copy", (256 * 1024,)))
        return self

    def exec(self) -> "KernelOps":
        """Charges of ``sys_exec`` (image load + fresh address space)."""
        self.syscall(SyscallKind.EXEC)
        self.ops.append(Op("disk_read", (512 * 1024,)))
        self.ops.append(Op("mem_alloc", (1024 * 1024,)))
        return self

    def context_switch(self) -> "KernelOps":
        """Charges of :meth:`GuestKernel.context_switch`."""
        self.switches += 1
        self.ops.append(Op("event", ("context_switches", 1)))
        self.ops.append(Op("syscall", (CONTEXT_SWITCH_NS,)))
        if self._halt_ns > 0:
            self.ops.append(Op("vm_transition", (self._halt_ns,)))
        return self

    def cpu_execute(self, instructions: int, memory_references: int = 0,
                    working_set_bytes: int = 0) -> "KernelOps":
        self.ops.append(Op("cpu", (instructions, memory_references,
                                   working_set_bytes)))
        return self

    def mem_alloc(self, nbytes: int) -> "KernelOps":
        self.ops.append(Op("mem_alloc", (nbytes,)))
        return self

    def mem_copy(self, nbytes: int) -> "KernelOps":
        self.ops.append(Op("mem_copy", (nbytes,)))
        return self

    def disk_read(self, nbytes: int) -> "KernelOps":
        self.ops.append(Op("disk_read", (nbytes,)))
        return self

    def disk_write(self, nbytes: int) -> "KernelOps":
        self.ops.append(Op("disk_write", (nbytes,)))
        return self


class KernelBatch:
    """Stages kernel-op sequences for one batched execution.

    Tracks the kernel-side bookkeeping (``syscall_count``, scheduler
    switch count) that per-op dispatch would have updated, and applies
    it exactly once at :meth:`commit` together with the charge fold.
    """

    __slots__ = ("kernel", "batch", "_syscalls", "_switches")

    def __init__(self, kernel: "GuestKernel") -> None:
        self.kernel = kernel
        self.batch = kernel.ctx.batch()
        self._syscalls = 0
        self._switches = 0

    def seq(self) -> KernelOps:
        """A fresh sequence recorder bound to this kernel's platform."""
        return KernelOps(self.kernel.ctx.profile.halt_transition_ns)

    def repeat(self, seq: KernelOps, count: int = 1) -> None:
        """Stage ``count`` repetitions of a recorded sequence."""
        self.batch.add_seq(seq.ops, count)
        self._syscalls += seq.syscalls * count
        self._switches += seq.switches * count

    def commit(self) -> float:
        """Run the staged ops; returns total charged nanoseconds."""
        self.kernel.syscall_count += self._syscalls
        self.kernel.scheduler.switch_count += self._switches
        self._syscalls = 0
        self._switches = 0
        total = self.kernel.ctx.run_batch(self.batch)
        self.batch = self.kernel.ctx.batch()
        return total


class GuestKernel:
    """A guest OS instance bound to one execution context."""

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        self.fs = InMemoryFileSystem()
        self.processes = ProcessTable()
        self.scheduler = RoundRobinScheduler(self.processes)
        self.syscall_count = 0

    # -- plumbing ------------------------------------------------------

    def _enter(self, kind: SyscallKind) -> None:
        """Charge the cost of entering the kernel for ``kind``."""
        self.syscall_count += 1
        self.ctx.syscall_entry(base_cost_ns(kind))

    def batch(self) -> KernelBatch:
        """A staged-op batch for hot loops (see :class:`KernelBatch`)."""
        return KernelBatch(self)

    # -- trivial syscalls ------------------------------------------------

    def sys_getpid(self) -> int:
        """Current pid (per the scheduler)."""
        self._enter(SyscallKind.GETPID)
        return self.scheduler.current_pid

    # -- filesystem syscalls ---------------------------------------------

    def sys_create(self, path: str) -> None:
        """Create an empty file."""
        self._enter(SyscallKind.CREATE)
        self.fs.create(path)
        self.ctx.disk_write(4096)  # inode + dirent journal

    def sys_mkdir(self, path: str) -> None:
        """Create a directory."""
        self._enter(SyscallKind.MKDIR)
        self.fs.mkdir(path)
        self.ctx.disk_write(4096)

    def sys_write(self, path: str, data: bytes, offset: int | None = None) -> int:
        """Write file data (append when ``offset`` is None)."""
        self._enter(SyscallKind.WRITE)
        written = self.fs.write(path, data, offset)
        self.ctx.mem_copy(written)     # user -> page cache
        self.ctx.disk_write(written)   # writeback
        return written

    def sys_read(self, path: str, offset: int = 0,
                 length: int | None = None, cached: bool = False) -> bytes:
        """Read file data.

        ``cached=True`` models a page-cache hit (recently written or
        read data): the copy to user space still happens, but no block
        I/O is issued — so no virtio exit and no bounce buffering.
        """
        self._enter(SyscallKind.READ)
        data = self.fs.read(path, offset, length)
        if not cached:
            self.ctx.disk_read(len(data))
        self.ctx.mem_copy(len(data))   # page cache -> user
        return data

    def sys_stat(self, path: str) -> dict[str, int | bool]:
        """File metadata: existence, type, size."""
        self._enter(SyscallKind.STAT)
        if not self.fs.exists(path):
            raise GuestOsError(f"stat: no such path {path}")
        is_dir = self.fs.is_dir(path)
        size = 0 if is_dir else self.fs.file_size(path)
        return {"is_dir": is_dir, "size": size}

    def sys_unlink(self, path: str) -> int:
        """Delete a file; returns its former size."""
        self._enter(SyscallKind.UNLINK)
        size = self.fs.unlink(path)
        self.ctx.disk_write(4096)
        return size

    def sys_rmdir(self, path: str) -> None:
        """Delete an empty directory."""
        self._enter(SyscallKind.RMDIR)
        self.fs.rmdir(path)
        self.ctx.disk_write(4096)

    # -- process syscalls --------------------------------------------------

    def sys_fork(self, name: str | None = None) -> Process:
        """Fork the current process; returns the child."""
        self._enter(SyscallKind.FORK)
        child = self.processes.fork(self.scheduler.current_pid, name)
        self.ctx.mem_copy(256 * 1024)  # COW page-table setup
        return child

    def sys_exec(self, pid: int, name: str) -> Process:
        """Replace a process image."""
        self._enter(SyscallKind.EXEC)
        proc = self.processes.exec(pid, name)
        self.ctx.disk_read(512 * 1024)   # load the new image
        self.ctx.mem_alloc(1024 * 1024)  # fresh address space
        return proc

    def sys_exit(self, pid: int, code: int = 0) -> None:
        """Terminate a process."""
        self._enter(SyscallKind.EXIT)
        self.processes.exit(pid, code)

    def sys_wait(self, parent_pid: int | None = None) -> tuple[int, int]:
        """Reap one zombie child of the caller."""
        self._enter(SyscallKind.WAIT)
        pid = parent_pid if parent_pid is not None else self.scheduler.current_pid
        return self.processes.wait(pid)

    # -- pipes and context switches ----------------------------------------

    def make_pipe(self, capacity: int = Pipe.DEFAULT_CAPACITY) -> Pipe:
        """Create a pipe (no syscall cost: bundled with first use)."""
        return Pipe(capacity)

    def sys_pipe_write(self, pipe: Pipe, data: bytes) -> int:
        """Write to a pipe; returns bytes accepted."""
        self._enter(SyscallKind.PIPE_WRITE)
        accepted = pipe.write(data)
        self.ctx.mem_copy(accepted)
        return accepted

    def sys_pipe_read(self, pipe: Pipe, length: int) -> bytes:
        """Read from a pipe."""
        self._enter(SyscallKind.PIPE_READ)
        data = pipe.read(length)
        self.ctx.mem_copy(len(data))
        return data

    def context_switch(self) -> None:
        """One blocking context switch (sleep current, wake peer).

        On confidential VMs the halt/wake pair forces a world switch
        in addition to the native switch cost.
        """
        self.scheduler.switch_count += 1
        self.ctx.machine.counters.context_switches += 1
        self.ctx.syscall_entry(CONTEXT_SWITCH_NS)
        if self.ctx.profile.halt_transition_ns > 0:
            self.ctx.vm_transition(self.ctx.profile.halt_transition_ns)

    def pipe_ping_pong(self, rounds: int, payload: int = 512) -> int:
        """UnixBench-style token bounce between two processes.

        Each round is a write, a context switch, a read, and a context
        switch back.  Returns total bytes moved.
        """
        if rounds < 0:
            raise GuestOsError(f"negative rounds: {rounds}")
        pipe = self.make_pipe()
        token = b"x" * payload
        moved = 0
        # each round's read depends on the write before it, so this
        # loop is inherently per-op; the UnixBench suite's batch engine
        # replays its charge pattern through KernelBatch instead
        for _ in range(rounds):
            self.sys_pipe_write(pipe, token)  # confbench: allow[hot-path-per-op]
            self.context_switch()
            moved += len(self.sys_pipe_read(pipe, payload))  # confbench: allow[hot-path-per-op]
            self.context_switch()
        return moved
