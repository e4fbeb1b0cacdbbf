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

:class:`KernelOps` is the one statement of what each operation
charges; the per-op ``sys_*`` calls and :class:`KernelBatch` both run
its ops.

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
from repro.guestos.process import INIT_PID, Process, ProcessTable
from repro.guestos.syscalls import (
    CONTEXT_SWITCH_NS,
    SyscallKind,
    base_cost_ns,
)
from repro.sim.opstream import Op

#: Each syscall's kernel-entry op: the first op of its sequence.
_ENTRY_OPS = {kind: Op("syscall", (base_cost_ns(kind),))
              for kind in SyscallKind}
#: Fixed-size charges: a namespace update's inode + dirent journal
#: block, fork's COW page-table setup, exec's image load and its fresh
#: address space.
_JOURNAL_WRITE = Op("disk_write", (4096,))
_FORK_COPY = Op("mem_copy", (256 * 1024,))
_EXEC_LOAD = Op("disk_read", (512 * 1024,))
_EXEC_ALLOC = Op("mem_alloc", (1024 * 1024,))


class KernelOps:
    """What each kernel operation charges, stated once.

    Each syscall method appends the ops that syscall charges — its
    kernel entry first, then its disk traffic and memory copies —
    without performing the functional operation.  ``GuestKernel.sys_*``
    replays a syscall's ops around its functional op; a batch caller
    does the functional work separately, then hands the sequence to
    :meth:`KernelBatch.repeat` with an iteration count.  Methods
    return ``self`` for chaining.
    """

    __slots__ = ("ops", "_halt_ns")

    def __init__(self, halt_transition_ns: float) -> None:
        self.ops: list[Op] = []
        self._halt_ns = halt_transition_ns

    def _syscall(self, kind: SyscallKind, *charges: Op) -> "KernelOps":
        """Kernel entry for ``kind``, then the syscall's other charges."""
        self.ops.append(_ENTRY_OPS[kind])
        self.ops.extend(charges)
        return self

    def _metadata(self, kind: SyscallKind) -> "KernelOps":
        return self._syscall(kind, _JOURNAL_WRITE)

    def getpid(self) -> "KernelOps":
        return self._syscall(SyscallKind.GETPID)

    def create(self) -> "KernelOps":
        return self._metadata(SyscallKind.CREATE)

    def mkdir(self) -> "KernelOps":
        return self._metadata(SyscallKind.MKDIR)

    def stat(self) -> "KernelOps":
        return self._syscall(SyscallKind.STAT)

    def unlink(self) -> "KernelOps":
        return self._metadata(SyscallKind.UNLINK)

    def rmdir(self) -> "KernelOps":
        return self._metadata(SyscallKind.RMDIR)

    def read(self, nbytes: int, cached: bool = False) -> "KernelOps":
        """A read returning ``nbytes``: block I/O unless the page cache
        holds the data, then the copy to user space."""
        if cached:
            return self._syscall(SyscallKind.READ, Op("mem_copy", (nbytes,)))
        return self._syscall(SyscallKind.READ, Op("disk_read", (nbytes,)),
                             Op("mem_copy", (nbytes,)))

    def write(self, nbytes: int) -> "KernelOps":
        """A write accepting ``nbytes``: copy to the page cache, then
        writeback."""
        return self._syscall(SyscallKind.WRITE, Op("mem_copy", (nbytes,)),
                             Op("disk_write", (nbytes,)))

    def pipe_write(self, nbytes: int) -> "KernelOps":
        return self._syscall(SyscallKind.PIPE_WRITE, Op("mem_copy", (nbytes,)))

    def pipe_read(self, nbytes: int) -> "KernelOps":
        return self._syscall(SyscallKind.PIPE_READ, Op("mem_copy", (nbytes,)))

    def fork(self) -> "KernelOps":
        return self._syscall(SyscallKind.FORK, _FORK_COPY)

    def exec(self) -> "KernelOps":
        return self._syscall(SyscallKind.EXEC, _EXEC_LOAD, _EXEC_ALLOC)

    def exit(self) -> "KernelOps":
        return self._syscall(SyscallKind.EXIT)

    def wait(self) -> "KernelOps":
        return self._syscall(SyscallKind.WAIT)

    def context_switch(self) -> "KernelOps":
        """One blocking context switch (sleep current, wake peer).

        On confidential VMs the halt/wake pair forces a world switch
        in addition to the native switch cost.
        """
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


class KernelBatch:
    """Stages kernel-op sequences for one batched execution: the
    staged charges fold into the ledger in one merge at :meth:`commit`.
    """

    __slots__ = ("kernel", "batch")

    def __init__(self, kernel: "GuestKernel") -> None:
        self.kernel = kernel
        self.batch = kernel.ctx.batch()

    def seq(self) -> KernelOps:
        """A fresh sequence recorder bound to this kernel's platform."""
        return KernelOps(self.kernel.ctx.profile.halt_transition_ns)

    def repeat(self, seq: KernelOps, count: int = 1) -> None:
        """Stage ``count`` repetitions of a recorded sequence."""
        self.batch.add_seq(seq.ops, count)

    def commit(self) -> float:
        """Run the staged ops; returns total charged nanoseconds."""
        total = self.kernel.ctx.run_batch(self.batch)
        self.batch = self.kernel.ctx.batch()
        return total


class GuestKernel:
    """A guest OS instance bound to one execution context.

    Each ``sys_*`` call charges its :class:`KernelOps` sequence one op
    at a time.  The entry is charged before the functional op, so a
    syscall that fails (a missing path, say) still pays its entry and
    nothing else.
    """

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        self.fs = InMemoryFileSystem()
        self.processes = ProcessTable()

    # -- plumbing ------------------------------------------------------

    def _ops(self) -> KernelOps:
        return KernelOps(self.ctx.profile.halt_transition_ns)

    def _enter(self, kind: SyscallKind) -> None:
        """Charge the kernel entry for ``kind``."""
        self.ctx.replay_op(_ENTRY_OPS[kind])

    def _leave(self, seq: KernelOps) -> None:
        """Charge the rest of a syscall's sequence after its entry,
        which :meth:`_enter` charged (a sequence starts with its entry)."""
        replay = self.ctx.replay_op
        for op in seq.ops[1:]:
            replay(op)

    def batch(self) -> KernelBatch:
        """A staged-op batch for hot loops (see :class:`KernelBatch`)."""
        return KernelBatch(self)

    # -- trivial syscalls ------------------------------------------------

    def sys_getpid(self) -> int:
        """Current pid (always init: the model has one runnable caller)."""
        self._enter(SyscallKind.GETPID)
        self._leave(self._ops().getpid())
        return INIT_PID

    # -- filesystem syscalls ---------------------------------------------

    def sys_create(self, path: str) -> None:
        """Create an empty file."""
        self._enter(SyscallKind.CREATE)
        self.fs.create(path)
        self._leave(self._ops().create())

    def sys_mkdir(self, path: str) -> None:
        """Create a directory."""
        self._enter(SyscallKind.MKDIR)
        self.fs.mkdir(path)
        self._leave(self._ops().mkdir())

    def sys_write(self, path: str, data: bytes, offset: int | None = None) -> int:
        """Write file data (append when ``offset`` is None)."""
        self._enter(SyscallKind.WRITE)
        written = self.fs.write(path, data, offset)
        self._leave(self._ops().write(written))
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
        self._leave(self._ops().read(len(data), cached))
        return data

    def sys_stat(self, path: str) -> dict[str, int | bool]:
        """File metadata: existence, type, size."""
        self._enter(SyscallKind.STAT)
        if not self.fs.exists(path):
            raise GuestOsError(f"stat: no such path {path}")
        is_dir = self.fs.is_dir(path)
        size = 0 if is_dir else self.fs.file_size(path)
        self._leave(self._ops().stat())
        return {"is_dir": is_dir, "size": size}

    def sys_unlink(self, path: str) -> int:
        """Delete a file; returns its former size."""
        self._enter(SyscallKind.UNLINK)
        size = self.fs.unlink(path)
        self._leave(self._ops().unlink())
        return size

    def sys_rmdir(self, path: str) -> None:
        """Delete an empty directory."""
        self._enter(SyscallKind.RMDIR)
        self.fs.rmdir(path)
        self._leave(self._ops().rmdir())

    # -- process syscalls --------------------------------------------------

    def sys_fork(self, name: str | None = None) -> Process:
        """Fork the calling (init) process; returns the child."""
        self._enter(SyscallKind.FORK)
        child = self.processes.fork(INIT_PID, name)
        self._leave(self._ops().fork())
        return child

    def sys_exec(self, pid: int, name: str) -> Process:
        """Replace a process image."""
        self._enter(SyscallKind.EXEC)
        proc = self.processes.exec(pid, name)
        self._leave(self._ops().exec())
        return proc

    def sys_exit(self, pid: int, code: int = 0) -> None:
        """Terminate a process."""
        self._enter(SyscallKind.EXIT)
        self.processes.exit(pid, code)
        self._leave(self._ops().exit())

    def sys_wait(self, parent_pid: int = INIT_PID) -> tuple[int, int]:
        """Reap one zombie child of the caller."""
        self._enter(SyscallKind.WAIT)
        reaped = self.processes.wait(parent_pid)
        self._leave(self._ops().wait())
        return reaped

    # -- pipes and context switches ----------------------------------------

    def make_pipe(self, capacity: int = Pipe.DEFAULT_CAPACITY) -> Pipe:
        """Create a pipe (no syscall cost: bundled with first use)."""
        return Pipe(capacity)

    def sys_pipe_write(self, pipe: Pipe, data: bytes) -> int:
        """Write to a pipe; returns bytes accepted."""
        self._enter(SyscallKind.PIPE_WRITE)
        accepted = pipe.write(data)
        self._leave(self._ops().pipe_write(accepted))
        return accepted

    def sys_pipe_read(self, pipe: Pipe, length: int) -> bytes:
        """Read from a pipe."""
        self._enter(SyscallKind.PIPE_READ)
        data = pipe.read(length)
        self._leave(self._ops().pipe_read(len(data)))
        return data

    def context_switch(self) -> None:
        """One blocking context switch (see :meth:`KernelOps.context_switch`)."""
        replay = self.ctx.replay_op
        for op in self._ops().context_switch().ops:
            replay(op)

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
