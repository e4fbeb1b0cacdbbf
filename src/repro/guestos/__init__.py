"""Simulated guest operating system.

The workloads in the paper exercise a full OS (UnixBench explicitly;
SQLite and the FaaS ``iostress``/``filesystem`` functions implicitly
through file I/O and process management).  This package provides that
substrate: an in-memory filesystem, a process table, pipes, and a
syscall layer with cost accounting.  There is no scheduler: every
syscall comes from the init process, and a blocking context switch is
priced as a charge (:meth:`repro.guestos.kernel.GuestKernel.context_switch`),
not scheduled.

Functional behaviour (what a file contains, which pids exist) is real;
timing flows through the :class:`repro.guestos.context.ExecContext`,
whose :class:`repro.guestos.context.CostProfile` hook is where TEE
platforms inject their overheads (world switches, bounce buffers,
memory encryption).
"""

from repro.guestos.context import CostProfile, ExecContext, NATIVE_PROFILE
from repro.guestos.filesystem import InMemoryFileSystem
from repro.guestos.process import ProcessTable, Process, ProcessState
from repro.guestos.pipes import Pipe
from repro.guestos.syscalls import SyscallKind
from repro.guestos.kernel import GuestKernel

__all__ = [
    "CostProfile",
    "ExecContext",
    "NATIVE_PROFILE",
    "InMemoryFileSystem",
    "ProcessTable",
    "Process",
    "ProcessState",
    "Pipe",
    "SyscallKind",
    "GuestKernel",
]
