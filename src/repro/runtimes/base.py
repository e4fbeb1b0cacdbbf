"""Runtime model and execution session.

A :class:`RuntimeModel` is static data describing one language
runtime; a :class:`RuntimeSession` binds a model to a guest kernel
and exposes the operation API FaaS workloads are written against
(compute / allocate / log / file I/O).  The session converts each
source-level operation into machine charges through the kernel's
execution context, applying dispatch expansion, allocation inflation,
GC pauses and JIT warmup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeModelError
from repro.guestos.kernel import GuestKernel
from repro.sim.opstream import Op, OpBatch


def _log_units(payload_len: int) -> int:
    """Compute units one ``log`` call spends formatting its message."""
    return 8 + payload_len // 8


@dataclass(frozen=True)
class RuntimeModel:
    """Cost model of one language runtime.

    Parameters
    ----------
    name:
        Registry key (``python``, ``node``, ...).
    startup_ns:
        Interpreter/VM bootstrap cost.  Charged as STARTUP and thus
        excluded from the paper-style timing measurements.
    dispatch_factor:
        Instructions executed per abstract compute unit (interpreter
        loop overhead).  Compiled runtimes sit near 1-2.
    jit_factor / jit_warmup_units:
        When ``jit_factor`` is set, execution beyond the warmup
        threshold uses it instead of ``dispatch_factor``.
    alloc_bytes_per_unit:
        Hidden allocation traffic per compute unit (boxing, object
        headers, nursery churn).
    mem_refs_per_unit:
        Memory references per compute unit reaching the cache model.
    gc_threshold_bytes:
        Allocation debt that triggers a collection.
    gc_scan_fraction:
        Fraction of the live heap a collection touches.
    """

    name: str
    startup_ns: float
    dispatch_factor: float
    alloc_bytes_per_unit: float
    mem_refs_per_unit: float
    gc_threshold_bytes: int
    gc_scan_fraction: float
    jit_factor: float | None = None
    jit_warmup_units: int = 0

    def __post_init__(self) -> None:
        if self.dispatch_factor <= 0:
            raise RuntimeModelError(f"{self.name}: dispatch factor must be positive")
        if self.jit_factor is not None and self.jit_factor <= 0:
            raise RuntimeModelError(f"{self.name}: JIT factor must be positive")


class RuntimeSession:
    """One function execution inside one runtime inside one VM.

    FaaS workload bodies call these methods; everything funnels into
    the kernel's execution context where the platform profile prices
    it.  The stdout of a function (``log``) is written through the
    kernel so that logging-heavy workloads pay syscall costs.
    """

    __slots__ = ("model", "kernel", "ctx", "units_executed", "heap_bytes",
                 "gc_debt", "gc_runs", "stdout_lines", "_booted")

    def __init__(self, model: RuntimeModel, kernel: GuestKernel) -> None:
        self.model = model
        self.kernel = kernel
        self.ctx = kernel.ctx
        self.units_executed = 0
        self.heap_bytes = 0
        self.gc_debt = 0
        self.gc_runs = 0
        self.stdout_lines = 0
        self._booted = False

    # -- lifecycle -----------------------------------------------------

    def bootstrap(self) -> None:
        """Start the runtime (charged as STARTUP — excluded from timing)."""
        if self._booted:
            raise RuntimeModelError("runtime already bootstrapped")
        self.ctx.startup(self.model.startup_ns)
        self._booted = True

    def _require_booted(self) -> None:
        if not self._booted:
            raise RuntimeModelError(
                f"runtime {self.model.name!r} used before bootstrap()"
            )

    # -- operations ------------------------------------------------------

    def _effective_factor(self, units: int) -> float:
        """Average dispatch factor over ``units``, honouring JIT warmup."""
        model = self.model
        if model.jit_factor is None:
            return model.dispatch_factor
        warm_remaining = max(0, model.jit_warmup_units - self.units_executed)
        cold_units = min(units, warm_remaining)
        hot_units = units - cold_units
        if units == 0:
            return model.jit_factor
        return (
            cold_units * model.dispatch_factor + hot_units * model.jit_factor
        ) / units

    def _charge(self, ops: list) -> float:
        """Charge recorded ops one by one; returns charged ns."""
        replay = self.ctx.replay_op
        charged = 0.0
        for op in ops:
            charged += replay(op)
        return charged

    def compute(self, units: int, working_set_bytes: int = 0) -> float:
        """Execute ``units`` of abstract work; returns charged ns.

        One unit corresponds to roughly one native instruction-
        equivalent of source-level work before runtime expansion.
        """
        self._require_booted()
        ops: list = []
        self._compute_ops(units, working_set_bytes, ops)
        return self._charge(ops)

    def allocate(self, nbytes: int) -> float:
        """Explicit allocation retained on the heap (e.g. buffers)."""
        self._require_booted()
        if nbytes < 0:
            raise RuntimeModelError(f"negative allocation: {nbytes}")
        ops: list = []
        self._allocate_ops(nbytes, transient=False, ops=ops)
        return self._charge(ops)

    def release(self, nbytes: int) -> None:
        """Drop ``nbytes`` from the tracked heap (free/unreference)."""
        self._require_booted()
        if nbytes < 0:
            raise RuntimeModelError(f"negative release: {nbytes}")
        self.heap_bytes = max(0, self.heap_bytes - nbytes)

    def log(self, message: str) -> float:
        """Write one line to stdout (a write syscall through the kernel)."""
        self._require_booted()
        ops: list = []
        self._log_ops(message, ops)
        return self._charge(ops)

    # -- batched operations --------------------------------------------------

    def _compute_ops(self, units: int, working_set_bytes: int,
                     ops: list) -> None:
        """Record one ``compute`` call's ops, evolving session state.

        The JIT-warmup factor, GC-debt accounting and heap tracking
        are pure integer arithmetic independent of charging, so they
        run at record time, and a single call and a batch charge the
        same recorded ops.
        """
        if units < 0:
            raise RuntimeModelError(f"negative compute units: {units}")
        if units == 0:
            return
        factor = self._effective_factor(units)
        ops.append(Op("cpu", (
            int(units * factor),
            int(units * self.model.mem_refs_per_unit),
            working_set_bytes or self.heap_bytes,
        )))
        churn = int(units * self.model.alloc_bytes_per_unit)
        if churn:
            self._allocate_ops(churn, transient=True, ops=ops)
        self.units_executed += units

    def _allocate_ops(self, nbytes: int, transient: bool, ops: list) -> None:
        """Record one allocation's ops, including a triggered GC (a scan
        of part of the live heap)."""
        ops.append(Op("mem_alloc", (nbytes,)))
        if not transient:
            self.heap_bytes += nbytes
        self.gc_debt += nbytes
        if self.gc_debt >= self.model.gc_threshold_bytes:
            self.gc_runs += 1
            self.gc_debt = 0
            scan_bytes = int(self.heap_bytes * self.model.gc_scan_fraction)
            if scan_bytes > 0:
                ops.append(Op("mem_copy", (scan_bytes,)))

    def _log_ops(self, message: str, ops: list) -> None:
        """Record one ``log`` call's ops, evolving session state."""
        self.stdout_lines += 1
        payload_len = len(message.encode())
        self._compute_ops(_log_units(payload_len), 0, ops)
        ops.append(Op("syscall", (320.0,)))
        ops.append(Op("mem_copy", (payload_len,)))

    def _record_calls(self, batch: OpBatch, count: int, units: int,
                      working_set_bytes: int = 0,
                      message: str | None = None) -> None:
        """Record ``count`` identical ``compute(units)`` calls — or, with
        ``message``, ``log(message)`` calls — a run at a time.

        One call is recorded at the current state; then the number of
        following calls that would record the very same ops is worked
        out in closed form.  A run ends at a JIT crossing (the dispatch
        factor changes) or at a GC (the call appends a heap scan).
        Compute and log churn is transient, so the heap — hence the
        working set and the scan size — is constant within a run.  The
        run goes into ``batch`` as one ``add_seq``, which coalesces
        equal consecutive sequences, so the entries are exactly those
        the per-call loop would build.
        """
        if count < 0:
            raise RuntimeModelError(f"negative call count: {count}")
        if units == 0:
            return
        model = self.model
        churn = int(units * model.alloc_bytes_per_unit)
        while count:
            warm_remaining = (0 if model.jit_factor is None else
                              max(0, model.jit_warmup_units - self.units_executed))
            gc_runs = self.gc_runs
            ops: list = []
            if message is None:
                self._compute_ops(units, working_set_bytes, ops)
            else:
                self._log_ops(message, ops)
            repeats = count - 1
            if warm_remaining:
                # a cold call repeats while the next one still fits the
                # warmup; the crossing call is followed by hot calls
                repeats = min(repeats, 0 if warm_remaining < units else
                              (model.jit_warmup_units - self.units_executed) // units)
            if churn:
                # the next calls repeat while their debt stays below
                # the threshold; a collecting call is followed by none
                repeats = min(repeats, 0 if self.gc_runs != gc_runs else
                              (model.gc_threshold_bytes - self.gc_debt - 1) // churn)
            batch.add_seq(ops, 1 + repeats)
            self.units_executed += repeats * units
            self.gc_debt += repeats * churn
            if message is not None:
                self.stdout_lines += repeats
            count -= 1 + repeats

    def compute_batch(self, units: int, count: int,
                      working_set_bytes: int = 0) -> float:
        """Run ``count`` identical ``compute`` calls as one batch.

        JIT warmup and GC evolve exactly as call by call (see
        :meth:`_record_calls`), and all charges fold into one ledger
        merge.  Byte-identical to calling :meth:`compute` ``count``
        times.
        """
        return self.batch().compute(units, working_set_bytes, count).commit()

    def batch(self) -> "SessionBatch":
        """A staged recorder over compute/allocate/release/log."""
        self._require_booted()
        return SessionBatch(self)

    # -- file I/O passthrough ------------------------------------------------

    def write_file(self, path: str, data: bytes) -> int:
        """Create-if-needed and append to a file."""
        self._require_booted()
        if not self.kernel.fs.exists(path):
            self.kernel.sys_create(path)
        return self.kernel.sys_write(path, data)

    def read_file(self, path: str) -> bytes:
        """Read a whole file."""
        self._require_booted()
        return self.kernel.sys_read(path)

    def delete_file(self, path: str) -> int:
        """Unlink a file."""
        self._require_booted()
        return self.kernel.sys_unlink(path)

    def mkdir(self, path: str) -> None:
        """Create a directory."""
        self._require_booted()
        self.kernel.sys_mkdir(path)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        self._require_booted()
        self.kernel.sys_rmdir(path)


class SessionBatch:
    """Stages a mixed sequence of session operations for one batch.

    Mirrors the session's per-op API (compute / allocate / release /
    log); session state — heap, GC debt, JIT warmup, stdout count —
    evolves at record time, and all charges fold into the ledger on
    :meth:`commit`.  Byte-identical to issuing the same calls per op.
    """

    __slots__ = ("session", "batch")

    def __init__(self, session: RuntimeSession) -> None:
        self.session = session
        self.batch = session.ctx.batch()

    def compute(self, units: int, working_set_bytes: int = 0,
                count: int = 1) -> "SessionBatch":
        self.session._record_calls(self.batch, count, units, working_set_bytes)
        return self

    def allocate(self, nbytes: int, count: int = 1,
                 release: int = 0) -> "SessionBatch":
        """Record ``count`` rounds of ``allocate(nbytes)``, each followed
        by ``release(release)``, a run at a time.

        A round that does not collect records just its allocation, so
        the rounds up to the next GC are one run: the heap grows by
        ``nbytes - release`` and the GC debt by ``nbytes`` per round.
        A release larger than the allocation may clamp the heap at
        zero, so such rounds are recorded one at a time.
        """
        if nbytes < 0:
            raise RuntimeModelError(f"negative allocation: {nbytes}")
        if release < 0:
            raise RuntimeModelError(f"negative release: {release}")
        if count < 0:
            raise RuntimeModelError(f"negative call count: {count}")
        session = self.session
        threshold = session.model.gc_threshold_bytes
        while count:
            gc_runs = session.gc_runs
            ops: list = []
            session._allocate_ops(nbytes, transient=False, ops=ops)
            session.heap_bytes = max(0, session.heap_bytes - release)
            repeats = 0
            if release <= nbytes and session.gc_runs == gc_runs:
                # the next rounds repeat while their debt stays below
                # the threshold
                repeats = count - 1 if nbytes == 0 else min(
                    count - 1, (threshold - session.gc_debt - 1) // nbytes)
            self.batch.add_seq(ops, 1 + repeats)
            session.heap_bytes += repeats * (nbytes - release)
            session.gc_debt += repeats * nbytes
            count -= 1 + repeats
        return self

    def release(self, nbytes: int) -> "SessionBatch":
        if nbytes < 0:
            raise RuntimeModelError(f"negative release: {nbytes}")
        self.session.heap_bytes = max(0, self.session.heap_bytes - nbytes)
        return self

    def log(self, message: str, count: int = 1) -> "SessionBatch":
        units = _log_units(len(message.encode()))
        self.session._record_calls(self.batch, count, units, message=message)
        return self

    def commit(self) -> float:
        """Run the staged ops; returns total charged nanoseconds."""
        total = self.session.ctx.run_batch(self.batch)
        self.batch = self.session.ctx.batch()
        return total
