"""Process table for the simulated guest kernel.

UnixBench's ``spawn`` (process creation), ``execl`` and ``shell``
tests exercise fork/exec/wait; this module provides the functional
side — pids, parent/child links, states, exit codes — while the
kernel prices the operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProcessError

#: The root process every table starts with (``init``); with no
#: scheduler in the model, it is the caller of every syscall.
INIT_PID = 1


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    RUNNING = "running"
    ZOMBIE = "zombie"
    REAPED = "reaped"


@dataclass
class Process:
    """One entry in the process table."""

    pid: int
    name: str
    parent_pid: int | None = None
    state: ProcessState = ProcessState.RUNNING
    exit_code: int | None = None
    children: list[int] = field(default_factory=list)


class ProcessTable:
    """Pid allocation and fork/exec/exit/wait semantics.

    The table starts with :data:`INIT_PID` (``init``-like root process).
    """

    def __init__(self, max_processes: int = 32768) -> None:
        if max_processes < 2:
            raise ProcessError("need room for at least init plus one child")
        self.max_processes = max_processes
        self._next_pid = INIT_PID + 1
        root = Process(pid=INIT_PID, name="init")
        self._table: dict[int, Process] = {INIT_PID: root}

    def get(self, pid: int) -> Process:
        """Look up a live (or zombie) process by pid."""
        try:
            return self._table[pid]
        except KeyError:
            raise ProcessError(f"no such process: pid {pid}") from None

    def live_count(self) -> int:
        """Number of processes not yet reaped."""
        return sum(
            1 for proc in self._table.values()
            if proc.state is not ProcessState.REAPED
        )

    def fork(self, parent_pid: int, name: str | None = None) -> Process:
        """Create a child of ``parent_pid``; returns the child."""
        parent = self.get(parent_pid)
        if parent.state is not ProcessState.RUNNING:
            raise ProcessError(f"cannot fork from {parent.state.value} pid {parent_pid}")
        if self.live_count() >= self.max_processes:
            raise ProcessError(f"process table full ({self.max_processes})")
        pid = self._next_pid
        self._next_pid += 1
        child = Process(
            pid=pid,
            name=name if name is not None else parent.name,
            parent_pid=parent_pid,
        )
        self._table[pid] = child
        parent.children.append(pid)
        return child

    def exec(self, pid: int, name: str) -> Process:
        """Replace a process image (rename, keep pid)."""
        proc = self.get(pid)
        if proc.state is not ProcessState.RUNNING:
            raise ProcessError(f"cannot exec in {proc.state.value} pid {pid}")
        proc.name = name
        return proc

    def exit(self, pid: int, code: int = 0) -> Process:
        """Terminate a process; it becomes a zombie until waited on."""
        proc = self.get(pid)
        if pid == INIT_PID:
            raise ProcessError("init (pid 1) cannot exit")
        if proc.state in (ProcessState.ZOMBIE, ProcessState.REAPED):
            raise ProcessError(f"pid {pid} already exited")
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        return proc

    def wait(self, parent_pid: int) -> tuple[int, int]:
        """Reap one zombie child of ``parent_pid``.

        Returns ``(child_pid, exit_code)``.  Raises when there is no
        zombie child (the simulation has no blocking).
        """
        parent = self.get(parent_pid)
        for child_pid in parent.children:
            child = self._table[child_pid]
            if child.state is ProcessState.ZOMBIE:
                child.state = ProcessState.REAPED
                parent.children.remove(child_pid)
                assert child.exit_code is not None
                return child_pid, child.exit_code
        raise ProcessError(f"pid {parent_pid} has no zombie children to wait on")
