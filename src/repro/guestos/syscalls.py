"""Syscall catalogue and base costs.

Each syscall has a fixed base kernel-entry cost (in nanoseconds on the
reference hardware); the TEE profile multiplies it and adds its own
world-switch cost on top.  Base numbers are in the ballpark of
measured Linux syscall latencies on modern x86 servers.  A blocking
context switch is priced the same way, from :data:`CONTEXT_SWITCH_NS`.
"""

from __future__ import annotations

import enum

from repro.errors import SyscallError


class SyscallKind(enum.Enum):
    """The syscalls the workloads exercise."""

    GETPID = "getpid"
    READ = "read"
    WRITE = "write"
    CREATE = "create"
    UNLINK = "unlink"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    STAT = "stat"
    FORK = "fork"
    EXEC = "exec"
    EXIT = "exit"
    WAIT = "wait"
    PIPE_READ = "pipe_read"
    PIPE_WRITE = "pipe_write"


# Base kernel-entry + service cost in nanoseconds (native, no TEE).
BASE_COST_NS: dict[SyscallKind, float] = {
    SyscallKind.GETPID: 60.0,
    SyscallKind.READ: 300.0,
    SyscallKind.WRITE: 320.0,
    SyscallKind.CREATE: 1400.0,
    SyscallKind.UNLINK: 1200.0,
    SyscallKind.MKDIR: 1300.0,
    SyscallKind.RMDIR: 1100.0,
    SyscallKind.STAT: 400.0,
    SyscallKind.FORK: 55_000.0,
    SyscallKind.EXEC: 180_000.0,
    SyscallKind.EXIT: 9_000.0,
    SyscallKind.WAIT: 2_500.0,
    SyscallKind.PIPE_READ: 350.0,
    SyscallKind.PIPE_WRITE: 380.0,
}

#: Direct cost of one native blocking context switch.
CONTEXT_SWITCH_NS = 1_600.0


def base_cost_ns(kind: SyscallKind) -> float:
    """The native base cost of a syscall.

    Raises
    ------
    SyscallError
        If the syscall has no registered cost (a modelling bug).
    """
    try:
        return BASE_COST_NS[kind]
    except KeyError:
        raise SyscallError(f"no base cost registered for {kind}") from None
