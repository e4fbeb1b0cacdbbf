"""Tests for the process table and pipes."""

import pytest

from repro.errors import GuestOsError, ProcessError
from repro.guestos.pipes import Pipe
from repro.guestos.process import ProcessState, ProcessTable


class TestProcessTable:
    def test_init_process_exists(self):
        table = ProcessTable()
        assert table.get(1).name == "init"

    def test_fork_assigns_new_pid(self):
        table = ProcessTable()
        child = table.fork(1)
        assert child.pid == 2
        assert child.parent_pid == 1
        assert 2 in table.get(1).children

    def test_fork_inherits_name(self):
        table = ProcessTable()
        assert table.fork(1).name == "init"

    def test_fork_with_name(self):
        table = ProcessTable()
        assert table.fork(1, "worker").name == "worker"

    def test_fork_unknown_parent_fails(self):
        with pytest.raises(ProcessError):
            ProcessTable().fork(99)

    def test_fork_limit(self):
        table = ProcessTable(max_processes=2)
        table.fork(1)
        with pytest.raises(ProcessError):
            table.fork(1)

    def test_exec_renames(self):
        table = ProcessTable()
        child = table.fork(1)
        table.exec(child.pid, "/bin/true")
        assert table.get(child.pid).name == "/bin/true"

    def test_exit_creates_zombie(self):
        table = ProcessTable()
        child = table.fork(1)
        table.exit(child.pid, 3)
        assert table.get(child.pid).state is ProcessState.ZOMBIE
        assert table.get(child.pid).exit_code == 3

    def test_init_cannot_exit(self):
        with pytest.raises(ProcessError):
            ProcessTable().exit(1)

    def test_double_exit_fails(self):
        table = ProcessTable()
        child = table.fork(1)
        table.exit(child.pid)
        with pytest.raises(ProcessError):
            table.exit(child.pid)

    def test_wait_reaps_zombie(self):
        table = ProcessTable()
        child = table.fork(1)
        table.exit(child.pid, 7)
        pid, code = table.wait(1)
        assert (pid, code) == (child.pid, 7)
        assert table.get(child.pid).state is ProcessState.REAPED

    def test_wait_without_zombie_fails(self):
        table = ProcessTable()
        table.fork(1)
        with pytest.raises(ProcessError):
            table.wait(1)

    def test_full_spawn_cycle_frees_slot(self):
        table = ProcessTable(max_processes=2)
        for _ in range(10):
            child = table.fork(1)
            table.exit(child.pid)
            table.wait(1)
        assert table.live_count() == 1

    def test_exec_on_zombie_fails(self):
        table = ProcessTable()
        child = table.fork(1)
        table.exit(child.pid)
        with pytest.raises(ProcessError):
            table.exec(child.pid, "x")


class TestPipe:
    def test_write_then_read(self):
        pipe = Pipe()
        assert pipe.write(b"hello") == 5
        assert pipe.read(5) == b"hello"

    def test_partial_read(self):
        pipe = Pipe()
        pipe.write(b"abcdef")
        assert pipe.read(2) == b"ab"
        assert pipe.read(10) == b"cdef"

    def test_bounded_capacity(self):
        pipe = Pipe(capacity=4)
        assert pipe.write(b"abcdef") == 4
        assert pipe.fill == 4
        assert pipe.space == 0

    def test_read_frees_space(self):
        pipe = Pipe(capacity=4)
        pipe.write(b"abcd")
        pipe.read(2)
        assert pipe.space == 2

    def test_empty_read_returns_empty(self):
        assert Pipe().read(10) == b""

    def test_counters(self):
        pipe = Pipe()
        pipe.write(b"abc")
        pipe.read(2)
        assert pipe.total_written == 3
        assert pipe.total_read == 2

    def test_negative_read_fails(self):
        with pytest.raises(GuestOsError):
            Pipe().read(-1)

    def test_bad_capacity(self):
        with pytest.raises(GuestOsError):
            Pipe(capacity=0)
