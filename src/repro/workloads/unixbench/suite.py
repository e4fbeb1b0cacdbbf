"""The UnixBench test implementations.

Every test performs real work against the guest kernel (loops,
syscalls, pipes, forks, file copies), measures the *virtual* time the
execution context accumulated, and reports a loops-per-second score.
Iteration counts are scaled-down but fixed, so scores are directly
comparable across platforms and VMs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.guestos.kernel import GuestKernel
from repro.guestos.process import INIT_PID
from repro.workloads.unixbench.index import (
    BASELINE_SCORES,
    index_for,
    system_index,
)

#: Simulation engines: ``batch`` stages each test's hot loop as one
#: op batch (the fast path); ``perop`` issues every syscall
#: individually (the reference path the equivalence tests compare
#: the batch engine against).
ENGINES = ("batch", "perop")


@dataclass(frozen=True)
class TestScore:
    """One test's outcome."""

    key: str
    name: str
    operations: int
    elapsed_ns: float
    score: float        # ops per virtual second (units per index.py)
    index: float


@dataclass
class UnixBenchReport:
    """The whole run: per-test scores plus the aggregated index."""

    scores: list[TestScore] = field(default_factory=list)

    @property
    def system_index(self) -> float:
        return system_index({score.key: score.index for score in self.scores})

    def score_of(self, key: str) -> TestScore:
        for score in self.scores:
            if score.key == key:
                return score
        raise WorkloadError(f"no score recorded for {key!r}")


class _Bench:
    """Helper: run one measured section against the kernel."""

    def __init__(self, kernel: GuestKernel, scale: float,
                 engine: str = "batch") -> None:
        self.kernel = kernel
        self.scale = scale
        self.engine = engine
        self.report = UnixBenchReport()

    def _record(self, key: str, operations: int, elapsed_ns: float,
                scale_score: float = 1.0) -> None:
        if elapsed_ns <= 0:
            raise WorkloadError(f"test {key} accumulated no virtual time")
        ops_per_second = operations / (elapsed_ns / 1e9) * scale_score
        name = BASELINE_SCORES[key][0]
        self.report.scores.append(TestScore(
            key=key,
            name=name,
            operations=operations,
            elapsed_ns=elapsed_ns,
            score=ops_per_second,
            index=index_for(key, ops_per_second),
        ))

    def _measured(self):
        return self.kernel.ctx.elapsed_ns()

    # -- CPU tests --------------------------------------------------------

    def dhry2(self) -> None:
        """Integer/string manipulation loop (Dhrystone-flavoured)."""
        loops = int(4000 * self.scale)
        start = self._measured()
        checksum = 0
        for i in range(loops):
            a = (i * 7 + 3) % 97
            b = (a << 2) ^ i
            checksum = (checksum + a * b) & 0xFFFFFFFF
        if checksum == 0xDEADBEEF:   # keep the loop honest
            raise WorkloadError("impossible checksum")
        self.kernel.ctx.cpu_execute(loops * 95, memory_references=loops * 6,
                                    working_set_bytes=64 * 1024)
        self._record("dhry2", loops, self._measured() - start)

    def whetstone(self) -> None:
        """Floating-point kernel (Whetstone-flavoured), scored in MWIPS."""
        loops = int(600 * self.scale)
        start = self._measured()
        x = 1.0
        for i in range(loops):
            x = math.sin(x) + math.cos(x) * math.atan(1.0 + x * x) / 2.0
        self.kernel.ctx.cpu_execute(loops * 420, memory_references=loops * 3)
        elapsed = self._measured() - start
        # score is "millions of whetstone instructions per second"
        self._record("whetstone", loops, elapsed, scale_score=420 / 1e6)
        if not math.isfinite(x):
            raise WorkloadError("whetstone diverged")

    # -- syscall / IPC tests --------------------------------------------------

    def syscall(self) -> None:
        loops = int(1500 * self.scale)
        start = self._measured()
        if self.engine == "batch":
            kb = self.kernel.batch()
            kb.repeat(kb.seq().getpid(), loops)
            kb.commit()
        else:
            for _ in range(loops):  # confbench: allow[hot-path-per-op]
                self.kernel.sys_getpid()
        self._record("syscall", loops, self._measured() - start)

    def pipe(self) -> None:
        loops = int(700 * self.scale)
        pipe = self.kernel.make_pipe()
        payload = b"x" * 512
        start = self._measured()
        if self.engine == "batch":
            # the pipe drains every iteration, so one functional
            # round-trip proves the transfer; charges batch as
            # (write, read) x loops
            accepted = pipe.write(payload)
            if pipe.read(accepted) != payload:
                raise WorkloadError("pipe transfer corrupted")
            kb = self.kernel.batch()
            kb.repeat(kb.seq().pipe_write(512).pipe_read(512), loops)
            kb.commit()
        else:
            for _ in range(loops):  # confbench: allow[hot-path-per-op]
                self.kernel.sys_pipe_write(pipe, payload)
                self.kernel.sys_pipe_read(pipe, 512)
        self._record("pipe", loops, self._measured() - start)

    def context1(self) -> None:
        rounds = int(250 * self.scale)
        start = self._measured()
        if self.engine == "batch":
            kb = self.kernel.batch()
            kb.repeat(
                kb.seq().pipe_write(128).context_switch()
                        .pipe_read(128).context_switch(),
                rounds,
            )
            kb.commit()
        else:
            self.kernel.pipe_ping_pong(rounds, payload=128)
        self._record("context1", rounds, self._measured() - start)

    # -- process tests -------------------------------------------------------------

    def spawn(self) -> None:
        loops = int(50 * self.scale)
        start = self._measured()
        if self.engine == "batch":
            kb = self.kernel.batch()
            kb.repeat(
                kb.seq().fork().exit().wait(),
                loops,
            )
            kb.commit()
            self._spawn_processes(loops, "child")
        else:
            for _ in range(loops):  # confbench: allow[hot-path-per-op]
                child = self.kernel.sys_fork("child")
                self.kernel.sys_exit(child.pid, 0)
                self.kernel.sys_wait()
        self._record("spawn", loops, self._measured() - start)

    def execl(self) -> None:
        loops = int(30 * self.scale)
        start = self._measured()
        if self.engine == "batch":
            kb = self.kernel.batch()
            kb.repeat(
                kb.seq().fork().exec().exit().wait(),
                loops,
            )
            kb.commit()
            self._spawn_processes(loops, "execl-host",
                                  exec_name="/bin/prog{}")
        else:
            for index in range(loops):  # confbench: allow[hot-path-per-op]
                child = self.kernel.sys_fork("execl-host")
                self.kernel.sys_exec(child.pid, f"/bin/prog{index % 3}")
                self.kernel.sys_exit(child.pid, 0)
                self.kernel.sys_wait()
        self._record("execl", loops, self._measured() - start)

    def _spawn_processes(self, loops: int, name: str,
                         exec_name: str | None = None) -> None:
        """The functional process-table work of a fork/exec/exit loop.

        The batched tests charge the whole loop in one fold, then run
        the uncharged process-table mutations here so the table (pid
        counter, reaped children) ends in the same state as the
        per-op path.
        """
        table = self.kernel.processes
        for index in range(loops):
            child = table.fork(INIT_PID, name)
            if exec_name is not None:
                table.exec(child.pid, exec_name.format(index % 3))
            table.exit(child.pid, 0)
            table.wait(INIT_PID)

    def shell1(self) -> None:
        """Shell-script style: spawn a small pipeline, do file work."""
        loops = int(12 * self.scale)
        start = self._measured()
        if self.engine == "batch":
            self._shell1_batch(loops)
        else:
            for index in range(loops):  # confbench: allow[hot-path-per-op]
                pids = []
                for stage in ("sort", "grep", "tee"):
                    child = self.kernel.sys_fork(stage)
                    self.kernel.sys_exec(child.pid, f"/bin/{stage}")
                    pids.append(child.pid)
                path = f"/tmp-shell-{index}"
                self.kernel.sys_create(path)
                self.kernel.sys_write(path, b"line\n" * 100)
                self.kernel.sys_read(path)
                self.kernel.sys_unlink(path)
                for pid in pids:
                    self.kernel.sys_exit(pid, 0)
                    self.kernel.sys_wait()
        elapsed = self._measured() - start
        # shell scripts are scored in loops per *minute*
        self._record("shell1", loops, elapsed, scale_score=60.0)

    def _shell1_batch(self, loops: int) -> None:
        """shell1's loop body charges one repeated pattern per loop."""
        payload = b"line\n" * 100
        kb = self.kernel.batch()
        seq = kb.seq()
        for _ in ("sort", "grep", "tee"):
            seq.fork().exec()
        seq.create().write(len(payload)).read(len(payload)).unlink()
        for _ in ("sort", "grep", "tee"):
            seq.exit().wait()
        kb.repeat(seq, loops)
        kb.commit()
        # the uncharged functional work, loop by loop
        fs = self.kernel.fs
        table = self.kernel.processes
        for index in range(loops):
            pids = []
            for stage in ("sort", "grep", "tee"):
                child = table.fork(INIT_PID, stage)
                table.exec(child.pid, f"/bin/{stage}")
                pids.append(child.pid)
            path = f"/tmp-shell-{index}"
            fs.create(path)
            fs.write(path, payload, None)
            fs.read(path, 0, None)
            fs.unlink(path)
            for pid in pids:
                table.exit(pid, 0)
                table.wait(INIT_PID)

    # -- file copy tests ------------------------------------------------------------

    def _fscopy(self, key: str, bufsize: int, blocks: int) -> None:
        source, dest = f"/fs-src-{bufsize}", f"/fs-dst-{bufsize}"
        self.kernel.sys_create(source)
        self.kernel.sys_write(source, b"d" * (bufsize * blocks))
        self.kernel.sys_create(dest)
        start = self._measured()
        copied = 0
        if self.engine == "batch":
            kb = self.kernel.batch()
            kb.repeat(kb.seq().read(bufsize).write(bufsize), blocks)
            kb.commit()
            # functional copy in one sweep: appending the whole file
            # leaves dest byte-equal to blocks per-block appends
            data = self.kernel.fs.read(source, 0, None)
            copied = self.kernel.fs.write(dest, data, None)
        else:
            for block in range(blocks):  # confbench: allow[hot-path-per-op]
                chunk = self.kernel.sys_read(source, offset=block * bufsize,
                                             length=bufsize)
                copied += self.kernel.sys_write(dest, chunk)
        elapsed = self._measured() - start
        # scored in KB copied per second
        self._record(key, blocks, elapsed,
                     scale_score=(bufsize / 1024.0))
        self.kernel.sys_unlink(source)
        self.kernel.sys_unlink(dest)
        if copied != bufsize * blocks:
            raise WorkloadError(f"file copy truncated: {copied}")

    def fscopy256(self) -> None:
        self._fscopy("fscopy256", 256, int(120 * self.scale))

    def fscopy1024(self) -> None:
        self._fscopy("fscopy1024", 1024, int(80 * self.scale))

    def fscopy4096(self) -> None:
        self._fscopy("fscopy4096", 4096, int(50 * self.scale))


def run_unixbench(kernel: GuestKernel, scale: float = 1.0,
                  engine: str = "batch") -> UnixBenchReport:
    """Run the single-threaded suite; returns per-test scores + index.

    ``scale`` shrinks/grows iteration counts uniformly (it cancels in
    secure/normal comparisons).  ``engine`` selects the batched fast
    path (default) or the per-op reference path; scores are byte-
    identical between the two.
    """
    if scale <= 0:
        raise WorkloadError(f"scale must be positive: {scale}")
    if engine not in ENGINES:
        raise WorkloadError(f"unknown engine {engine!r} (have: {ENGINES})")
    bench = _Bench(kernel, scale, engine)
    bench.dhry2()
    bench.whetstone()
    bench.syscall()
    bench.pipe()
    bench.context1()
    bench.spawn()
    bench.execl()
    bench.shell1()
    bench.fscopy256()
    bench.fscopy1024()
    bench.fscopy4096()
    return bench.report
