"""Unified trial-execution pipeline: TrialPlan → TrialRunner.

The paper's methodology has one fixed shape — boot a secure/normal VM
pair per platform, run N independent trials per (workload, runtime)
cell, aggregate — and every harness used to re-implement that loop by
hand.  This module lifts it into three pieces:

- :class:`TrialSpec` — a declarative, content-hashable description of
  ONE trial: (kind, platform, secure, workload, runtime, trial index,
  root seed, parameters).  A spec fully determines its result: the
  per-trial RNG substream is derived from the spec alone, never from
  VM identity or execution order.
- :class:`TrialPlan` — an ordered tuple of specs.  The standard
  builder (:meth:`TrialPlan.matrix`) interleaves (secure, normal) per
  trial index, the ordering the paper's matched-trials methodology
  implies.
- :class:`TrialRunner` — executes a plan through a pluggable executor:
  :class:`SerialTrialExecutor` (default) or the
  :class:`ParallelTrialExecutor` backed by a ``ProcessPoolExecutor``
  with a ``jobs`` knob.  Because every trial is a pure function of its
  spec, parallel and serial execution produce bit-identical results.

Workload *bodies* (the callables a VM executes) cannot be pickled to
worker processes, so specs reference them declaratively through a
body-factory registry keyed by ``kind``; workers rebuild (and memoize)
the body from the spec.  This module is only the pipeline: the
built-in bodies live in :mod:`repro.core.scenarios`, which registers
them through :func:`body_factory` on every import of this module.
Use :func:`body_factory` to register custom kinds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, Sequence

from repro.errors import (
    AttestationError,
    GatewayError,
    TrialBudgetError,
    VmCrashError,
)
from repro.hw.perfcounters import PerfCounters
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import (
    DEFAULT_RETRY_POLICY,
    FailureLog,
    FaultContext,
    FaultPlan,
)
from repro.sim.ledger import CostCategory, CostLedger
from repro.sim.rng import SimRng
from repro.sim.trace import Trace
from repro.tee.base import VmConfig
from repro.tee.registry import platform_by_name
from repro.tee.vm import RunResult

if TYPE_CHECKING:  # pragma: no cover - loaded only for parallel runs
    from concurrent.futures import ProcessPoolExecutor


class RunnerError(GatewayError):
    """Errors from the trial-execution pipeline."""


# ---------------------------------------------------------------------------
# Trial specs and plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialSpec:
    """A declarative description of one independent trial.

    ``params_json`` is a canonical (sorted-key) JSON encoding of the
    body parameters so that specs stay hashable and their content hash
    is stable; build specs through :meth:`make` to get the
    canonicalisation for free.
    """

    kind: str                   # body-factory key ("faas", "ml", ...)
    platform: str               # TEE platform name ("tdx", "sev-snp", ...)
    secure: bool                # confidential vs normal VM
    workload: str               # workload name within the kind
    runtime: str | None         # language runtime; None for classic
    trial: int                  # trial index within the cell
    seed: int                   # experiment root seed
    params_json: str = "{}"     # canonical JSON of body parameters
    contention: float = 1.0     # host oversubscription factor
    faults: str = ""            # canonical fault-plan spec; "" = none
    budget_ns: float = 0.0      # virtual-time watchdog deadline; 0 = none

    @classmethod
    def make(cls, kind: str, platform: str, secure: bool, workload: str,
             trial: int, seed: int, runtime: str | None = None,
             params: dict[str, Any] | None = None,
             contention: float = 1.0,
             budget_ns: float = 0.0) -> "TrialSpec":
        """Build a spec, canonicalising ``params`` into JSON."""
        if trial < 0:
            raise RunnerError(f"trial index must be >= 0, got {trial}")
        if budget_ns < 0:
            raise RunnerError(f"budget must be >= 0, got {budget_ns}")
        return cls(
            kind=kind, platform=platform, secure=secure, workload=workload,
            runtime=runtime, trial=trial, seed=seed,
            params_json=json.dumps(params or {}, sort_keys=True,
                                   separators=(",", ":")),
            contention=contention,
            budget_ns=budget_ns,
        )

    @property
    def params(self) -> dict[str, Any]:
        """The decoded body parameters."""
        return json.loads(self.params_json)

    @property
    def run_name(self) -> str:
        """The workload name recorded on results (matches the legacy
        harnesses: FaaS cells are ``workload/runtime``)."""
        if self.runtime is not None:
            return f"{self.workload}/{self.runtime}"
        return self.workload

    @property
    def cell(self) -> tuple[str, str, str | None, bool]:
        """Aggregation key: (platform, workload, runtime, secure)."""
        return (self.platform, self.workload, self.runtime, self.secure)

    def _stream_label(self) -> str:
        side = "secure" if self.secure else "normal"
        return (f"trial/{self.kind}/{self.workload}/"
                f"{self.runtime or 'native'}/{self.platform}/{side}/"
                f"{self.trial}")

    def rng(self) -> SimRng:
        """The trial's independent RNG substream."""
        return SimRng(self.seed, self._stream_label())

    def fault_plan(self) -> FaultPlan | None:
        """The decoded fault plan, or None when no faults are set."""
        if not self.faults:
            return None
        return FaultPlan.parse(self.faults)

    def content_hash(self) -> str:
        """Stable digest of everything that determines the result."""
        blob = {
            "kind": self.kind,
            "platform": self.platform,
            "secure": self.secure,
            "workload": self.workload,
            "runtime": self.runtime,
            "trial": self.trial,
            "seed": self.seed,
            "params": self.params_json,
            "contention": self.contention,
        }
        # only non-default fields enter the digest, so every
        # pre-existing journal entry stays addressable under its
        # original hash
        if self.faults:
            blob["faults"] = self.faults
        if self.budget_ns:
            blob["budget_ns"] = self.budget_ns
        encoded = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()


@dataclass(frozen=True)
class TrialPlan:
    """An ordered collection of trial specs (the unit a runner runs)."""

    specs: tuple[TrialSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise RunnerError("a trial plan needs at least one spec")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[TrialSpec]:
        return iter(self.specs)

    def content_hash(self) -> str:
        """Digest over the member specs, order-sensitive."""
        digest = hashlib.sha256()
        for spec in self.specs:
            digest.update(spec.content_hash().encode())
        return digest.hexdigest()

    def with_faults(self, spec: "str | FaultPlan") -> "TrialPlan":
        """A copy of this plan with a fault plan applied to every spec.

        ``spec`` is canonicalised (parse → :meth:`FaultPlan.to_spec`)
        so equivalent spellings of the same plan hash identically.
        """
        canonical = FaultPlan.parse(spec).to_spec()
        return TrialPlan(specs=tuple(
            replace(member, faults=canonical) for member in self.specs
        ))

    def with_budget(self, budget_ns: float) -> "TrialPlan":
        """A copy with a virtual-time watchdog deadline on every spec.

        A trial whose attempt exceeds ``budget_ns`` of virtual time is
        treated as stuck and killed at the deadline (see
        :func:`execute_trial`).  Like fault plans, the budget enters
        the content hash only when set, so unbudgeted hashes are
        untouched.
        """
        if budget_ns < 0:
            raise RunnerError(f"budget must be >= 0, got {budget_ns}")
        return TrialPlan(specs=tuple(
            replace(member, budget_ns=float(budget_ns))
            for member in self.specs
        ))

    @classmethod
    def matrix(
        cls,
        kind: str,
        platforms: Sequence[str],
        workloads: Sequence[str],
        trials: int,
        seed: int,
        runtimes: Sequence[str | None] = (None,),
        secure_modes: Sequence[bool] = (True, False),
        params: dict[str, Any] | None = None,
        contention: float = 1.0,
        budget_ns: float = 0.0,
    ) -> "TrialPlan":
        """The standard experiment sweep.

        Ordering is platform → runtime → workload → trial →
        (secure, normal): matched secure/normal trials are adjacent
        per trial index (satisfying the paper's matched-trials
        methodology) and whole cells stay contiguous for aggregation.
        """
        if trials < 1:
            raise RunnerError(f"need at least one trial, got {trials}")
        specs = tuple(
            TrialSpec.make(kind=kind, platform=platform, secure=secure,
                           workload=workload, runtime=runtime, trial=trial,
                           seed=seed, params=params, contention=contention,
                           budget_ns=budget_ns)
            for platform in platforms
            for runtime in runtimes
            for workload in workloads
            for trial in range(trials)
            for secure in secure_modes
        )
        return cls(specs=specs)


# ---------------------------------------------------------------------------
# Body factories: declarative workload → executable body
# ---------------------------------------------------------------------------

_BODY_FACTORIES: dict[str, Callable[[TrialSpec], Callable]] = {}


def body_factory(kind: str):
    """Register a body factory for a spec ``kind``.

    The factory receives the spec and returns the VM-executable body
    (a callable taking the guest kernel).  Factories must be
    registered at module scope — a worker process rebuilds bodies
    only for kinds its imports registered — and the returned body
    must be reusable across trials (it is memoized per unique spec
    parameters).
    """

    def decorate(factory: Callable[[TrialSpec], Callable]):
        _BODY_FACTORIES[kind] = factory
        return factory

    return decorate


#: Bodies memoized per process; covers the Fig. 6 grid (25 functions
#: x 7 runtimes x 2 platforms = 350 bodies), so a repeated sweep
#: rebuilds none.
BODY_CACHE_SIZE = 1024


@lru_cache(maxsize=BODY_CACHE_SIZE)
def _cached_body(kind: str, workload: str, runtime: str | None,
                 params_json: str, platform: str) -> Callable:
    factory = _BODY_FACTORIES.get(kind)
    if factory is None:
        known = ", ".join(sorted(_BODY_FACTORIES)) or "(none)"
        raise RunnerError(f"unknown trial kind {kind!r}; registered: {known}")
    spec = TrialSpec(kind=kind, platform=platform, secure=True,
                     workload=workload, runtime=runtime, trial=0, seed=0,
                     params_json=params_json)
    return factory(spec)


def build_body(spec: TrialSpec) -> Callable:
    """Resolve (and memoize) the executable body for a spec.

    Memoization keys on everything body construction may read — kind,
    workload, runtime, params, platform — but NOT on trial/seed/secure,
    so expensive setup (e.g. the Fig. 3 model + dataset) happens once
    per worker process rather than once per trial.
    """
    return _cached_body(spec.kind, spec.workload, spec.runtime,
                        spec.params_json, spec.platform)


# ---------------------------------------------------------------------------
# Trial execution (the pure function both executors map over specs)
# ---------------------------------------------------------------------------

def execute_trial(spec: TrialSpec) -> RunResult:
    """Run one trial from scratch: fresh platform, fresh VM, traced.

    The result is a pure function of the spec — the platform and VM
    are rebuilt per trial, the RNG substream comes from the spec, and
    every fault decision is drawn from ``(fault seed, kind, label)``
    substreams keyed by the spec's own stream label — which is what
    makes serial and parallel execution bit-identical, faults or not.

    With a fault plan set on the spec, retryable failures (VM crashes,
    attestation transients/timeouts that exhausted the verifier's own
    retries) re-run the trial on a fresh VM under
    :data:`~repro.sim.faults.DEFAULT_RETRY_POLICY`; the dead attempts'
    wasted time plus backoff is charged to the surviving result's
    STARTUP bucket and replayed into its trace as ``failure``/``retry``
    spans.  A trial that exhausts its attempts returns a *degraded*
    result rather than raising, so no trial is ever silently dropped.

    With ``budget_ns`` set on the spec, an attempt whose total virtual
    time exceeds the budget is treated as stuck and killed at the
    deadline (:class:`~repro.errors.TrialBudgetError`): the attempt's
    output is discarded and exactly ``budget_ns`` of waste is charged.
    Without faults the kill degrades the trial immediately — a
    deterministic re-run would bust the same budget — while under
    faults it counts as one failed attempt, since the next attempt
    re-rolls its fault draws and may stay under the deadline.
    """
    plan = spec.fault_plan()
    if plan is None or not plan.active:
        result = _attempt_trial(spec, None, FailureLog())
        if not _over_budget(spec, result):
            return result
        failures = FailureLog()
        failures.add(TrialBudgetError.__name__, wasted_ns=spec.budget_ns)
        return _degraded_result(spec, failures, [], 1)

    policy = DEFAULT_RETRY_POLICY
    label = spec._stream_label()
    failures = FailureLog()
    injected: list[str] = []
    attempt = 0
    while policy.allows(attempt, failures.surcharge_ns):
        faults = FaultContext(plan, f"{label}/a{attempt}")
        try:
            result = _attempt_trial(spec, faults, failures)
            if _over_budget(spec, result):
                raise TrialBudgetError(
                    f"trial exceeded its {spec.budget_ns:g} ns budget",
                    wasted_ns=spec.budget_ns,
                )
        except (VmCrashError, AttestationError, TrialBudgetError) as exc:
            injected.extend(faults.injected)
            final = not policy.allows(attempt + 1, failures.surcharge_ns)
            failures.add(
                type(exc).__name__,
                wasted_ns=getattr(exc, "wasted_ns", 0.0),
                backoff_ns=0.0 if final else policy.backoff_ns(attempt),
            )
            attempt += 1
            continue
        injected.extend(faults.injected)
        surcharge = failures.surcharge_ns
        if surcharge > 0:
            result.ledger.charge(CostCategory.STARTUP, surcharge)
            result.total_ns += surcharge
        if attempt or injected:
            result.attempts = attempt + 1
            result.faults_injected = tuple(injected)
        return result
    return _degraded_result(spec, failures, injected, attempt)


def _over_budget(spec: TrialSpec, result: RunResult) -> bool:
    """Whether an attempt blew the spec's virtual-time budget."""
    return spec.budget_ns > 0.0 and result.total_ns > spec.budget_ns


def _attempt_trial(spec: TrialSpec, faults: FaultContext | None,
                   failures: FailureLog) -> RunResult:
    """One attempt of one trial; prior failures are replayed first."""
    platform = platform_by_name(spec.platform, seed=spec.seed)
    vm = platform.create_vm(VmConfig(secure=spec.secure))
    trace = Trace()
    failures.replay(trace)
    boot_ns = vm.boot()
    trace.record("boot", 0.0, boot_ns)
    body = build_body(spec)
    try:
        return vm.run(
            body,
            name=spec.run_name,
            trial=spec.trial,
            contention=spec.contention,
            rng=spec.rng(),
            trace=trace,
            faults=faults,
        )
    except VmCrashError as exc:
        # the crashed attempt also threw away its boot
        exc.wasted_ns += boot_ns
        raise


def _degraded_result(spec: TrialSpec, failures: FailureLog,
                     injected: list[str], attempts: int) -> RunResult:
    """The placeholder a trial returns when every attempt failed.

    ``output`` is None and ``degraded`` is True; ``elapsed_ns`` stays
    0 (nothing measurable completed) while ``total_ns`` carries the
    full failure surcharge, so sweeps can both spot and cost the loss.
    """
    trace = Trace()
    failures.replay(trace)
    ledger = CostLedger()
    surcharge = failures.surcharge_ns
    if surcharge > 0:
        ledger.charge(CostCategory.STARTUP, surcharge)
    side = "secure" if spec.secure else "normal"
    return RunResult(
        vm_id=f"degraded/{spec.platform}/{side}",
        platform=spec.platform,
        secure=spec.secure,
        workload=spec.run_name,
        output=None,
        elapsed_ns=0.0,
        total_ns=surcharge,
        ledger=ledger,
        counters=PerfCounters(),
        trial=spec.trial,
        trace=trace,
        attempts=attempts,
        faults_injected=tuple(injected),
        degraded=True,
    )


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------

class TrialExecutor(Protocol):
    """Maps the trial function over specs, preserving order.

    ``on_result`` is invoked as ``on_result(position, result)`` the
    moment each trial completes — the runner persists and records
    every result through it.
    """

    def map(self, fn: Callable[[TrialSpec], RunResult],
            specs: Sequence[TrialSpec],
            on_result: Callable[[int, RunResult], None] | None = None,
            ) -> list[RunResult]:
        ...  # pragma: no cover - protocol


class SerialTrialExecutor:
    """Runs trials one after another in-process (the default)."""

    jobs = 1

    def map(self, fn: Callable[[TrialSpec], RunResult],
            specs: Sequence[TrialSpec],
            on_result: Callable[[int, RunResult], None] | None = None,
            ) -> list[RunResult]:
        results: list[RunResult] = []
        for position, spec in enumerate(specs):
            result = fn(spec)
            results.append(result)
            if on_result is not None:
                on_result(position, result)
        return results


class ParallelTrialExecutor:
    """Fans trials out to a supervised process pool.

    Independent deterministic trials are embarrassingly parallel;
    ``jobs`` caps the worker count.  Results come back in spec order,
    and because :func:`execute_trial` is a pure function of the spec,
    the output is bit-identical to the serial executor's.

    The pool is *supervised*: a worker that dies (``SIGKILL``, OOM —
    surfacing as :class:`BrokenProcessPool`) or goes silent for a full
    ``heartbeat_s`` wall-clock interval does not abort the sweep.
    Instead the pool is torn down (stuck workers are killed), a fresh
    pool is spawned, and the surviving work list is re-derived —
    results already delivered are kept and only the rest are
    resubmitted.  After ``max_respawns`` pool replacements the
    executor gives up with a :class:`RunnerError` naming the pending
    trials, so a poisoned spec cannot respawn-loop forever.
    """

    def __init__(self, jobs: int, mp_context=None,
                 heartbeat_s: float | None = None,
                 max_respawns: int = 2) -> None:
        if jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise RunnerError(f"heartbeat must be > 0, got {heartbeat_s}")
        if max_respawns < 0:
            raise RunnerError(
                f"max_respawns must be >= 0, got {max_respawns}")
        self.jobs = jobs
        self.heartbeat_s = heartbeat_s
        self.max_respawns = max_respawns
        self._mp_context = mp_context

    def map(self, fn: Callable[[TrialSpec], RunResult],
            specs: Sequence[TrialSpec],
            on_result: Callable[[int, RunResult], None] | None = None,
            ) -> list[RunResult]:
        if not specs:
            return []
        if self.jobs == 1 or len(specs) == 1:
            return SerialTrialExecutor().map(fn, specs, on_result=on_result)
        # imported here, not at module top: loading the process pool
        # pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        results: dict[int, RunResult] = {}
        respawns = 0
        pool = self._new_pool()
        try:
            futures = self._submit(pool, fn, specs, range(len(specs)),
                                   results)
            while futures:
                done, _ = wait(set(futures), timeout=self.heartbeat_s,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # watchdog: nothing finished within a heartbeat —
                    # a worker is hung (stuck, not dead), so the pool
                    # cannot make progress on its own
                    pending = sorted(futures.values())
                    respawns = self._account_respawn(
                        respawns, pending, specs,
                        reason="no worker heartbeat "
                               f"within {self.heartbeat_s:g}s")
                    pool = self._replace_pool(pool, kill=True)
                    futures = self._submit(pool, fn, specs, pending,
                                           results)
                    continue
                broken: BrokenProcessPool | None = None
                lost: list[int] = []
                for future in done:
                    position = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        lost.append(position)
                        continue
                    results[position] = result
                    if on_result is not None:
                        on_result(position, result)
                if broken is not None:
                    # a worker died outright; every in-flight future
                    # was lost with the pool, so re-derive the
                    # surviving work list and carry on
                    pending = sorted({*lost, *futures.values()})
                    futures.clear()
                    respawns = self._account_respawn(
                        respawns, pending, specs,
                        reason="a worker process died", cause=broken)
                    pool = self._replace_pool(pool, kill=False)
                    futures = self._submit(pool, fn, specs, pending,
                                           results)
        finally:
            self._abandon_pool(pool)
        return [results[position] for position in range(len(specs))]

    # -- supervision internals -----------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.jobs,
                                   mp_context=self._mp_context)

    def _submit(self, pool: ProcessPoolExecutor, fn, specs,
                positions, results) -> dict:
        """Submit the given spec positions that have no result yet.

        Positions delivered before a pool death are not resubmitted —
        that is how a respawn "re-derives the surviving work list"
        instead of redoing the whole sweep.
        """
        return {pool.submit(fn, specs[position]): position
                for position in positions if position not in results}

    def _account_respawn(self, respawns: int, pending, specs,
                         reason: str, cause: Exception | None = None) -> int:
        """Count one pool respawn, or give up past ``max_respawns``.

        The error names the trials that were still pending — the ones
        a dead worker could have been running — rather than a bare
        ``concurrent.futures`` traceback.
        """
        if respawns >= self.max_respawns:
            names = ", ".join(dict.fromkeys(
                f"{specs[position].run_name}#{specs[position].trial}"
                for position in pending))
            raise RunnerError(
                f"parallel executor gave up after {respawns} pool "
                f"respawn(s) ({reason}); pending trials: {names}"
            ) from cause
        return respawns + 1

    def _replace_pool(self, pool: ProcessPoolExecutor,
                      kill: bool) -> ProcessPoolExecutor:
        """Tear the old pool down and spawn a fresh one.

        ``kill=True`` reaps hung workers first — a stuck worker never
        returns, and leaving it alive would wedge interpreter exit.
        """
        if kill:
            self._kill_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        return self._new_pool()

    def _abandon_pool(self, pool: ProcessPoolExecutor) -> None:
        """Final teardown on every exit from ``map``.

        Workers are killed unconditionally: on the success path they
        are idle (nothing is lost), and on the give-up path a hung
        worker left alive would block interpreter exit when
        ``concurrent.futures`` joins its management threads.

        The management thread is then joined (``wait=True``; the
        workers are dead, so it returns promptly).  Left running, it
        can close its wakeup pipe while the interpreter's exit hook
        writes to it, and the hook prints an ``OSError: [Errno 9]``
        traceback to stderr at exit.
        """
        self._kill_workers(pool)
        pool.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

class TrialRunner:
    """Executes trial plans; the single entry point for all harnesses.

    Parameters
    ----------
    jobs:
        Worker-process count; 1 (default) selects the serial executor.
    executor:
        Explicit executor instance (overrides ``jobs``).
    faults:
        Optional fault plan (a spec string or :class:`FaultPlan`)
        applied to every plan this runner executes; see
        :meth:`TrialPlan.with_faults`.
    journal:
        Optional durable trial journal (see
        :class:`repro.core.journal.TrialJournal`).  Journaled trials
        are replayed instead of re-executed, and every freshly
        completed trial is journaled *the moment it finishes* — not
        when the sweep ends — so a killed sweep resumes from its last
        completed trial.  Replay is bit-identical to an uninterrupted
        run because every trial is a pure function of its spec.
    budget_ns:
        Optional per-trial virtual-time watchdog deadline applied to
        every plan (see :meth:`TrialPlan.with_budget`).
    watchdog_s:
        Optional *wall-clock* heartbeat for the parallel executor:
        when no trial completes for this many real seconds, the worker
        pool is presumed stuck and respawned.  Only meaningful with
        ``jobs > 1``.

    Every runner aggregates into its own
    :class:`~repro.obs.metrics.MetricsRegistry`, :attr:`metrics`.
    Results are observed in **spec order** after each ``run`` — never
    from completion-order callbacks — so a parallel run's snapshot is
    byte-identical to a serial run's.
    """

    def __init__(self, jobs: int = 1,
                 executor: TrialExecutor | None = None,
                 faults: "str | FaultPlan | None" = None,
                 journal=None,
                 budget_ns: float | None = None,
                 watchdog_s: float | None = None) -> None:
        if jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        if budget_ns is not None and budget_ns < 0:
            raise RunnerError(f"budget must be >= 0, got {budget_ns}")
        if executor is not None:
            self.executor = executor
        elif jobs > 1:
            self.executor = ParallelTrialExecutor(jobs,
                                                  heartbeat_s=watchdog_s)
        else:
            self.executor = SerialTrialExecutor()
        self.journal = journal
        self.budget_ns = budget_ns
        self.metrics = MetricsRegistry()
        self.faults = (
            FaultPlan.parse(faults).to_spec() if faults is not None else None
        )
        #: (plan, results) pairs from every ``run`` call, in order —
        #: what ``report.trace_payload`` serialises for trace dumps.
        self.history: list[tuple[TrialPlan, list[RunResult]]] = []

    def run(self, plan: TrialPlan) -> list[RunResult]:
        """Execute every spec in the plan; results in spec order."""
        if self.faults:
            plan = plan.with_faults(self.faults)
        if self.budget_ns:
            plan = plan.with_budget(self.budget_ns)
        results: dict[int, RunResult] = {}
        pending: list[tuple[int, TrialSpec]] = []
        for index, spec in enumerate(plan):
            archived = (self.journal.get(spec)
                        if self.journal is not None else None)
            if archived is not None:
                results[index] = archived
            else:
                pending.append((index, spec))
        if pending:
            self._dispatch(pending, results)
        ordered = [results[index] for index in range(len(plan))]
        self.history.append((plan, ordered))
        self._observe(ordered, executed=len(pending),
                      replayed=len(plan) - len(pending))
        return ordered

    def _observe(self, ordered: list[RunResult], executed: int,
                 replayed: int) -> None:
        """Fold one plan's results into the metrics registry.

        Called with results in spec order *after* execution, never
        from the executors' completion-order callbacks: histogram
        float sums accumulate in one fixed order, which is what keeps
        serial and parallel snapshots byte-identical.
        """
        self.metrics.count("runner.plans", 1)
        self.metrics.count("runner.trials", len(ordered))
        self.metrics.count("runner.trials_executed", executed)
        if replayed:
            self.metrics.count("runner.trials_replayed", replayed)
        for result in ordered:
            result.emit(self.metrics)

    def _dispatch(self, pending: list[tuple[int, TrialSpec]],
                  results: dict[int, RunResult]) -> None:
        """Run the pending specs, persisting each result as it lands.

        Persistence rides the executor's ``on_result`` callback, so a
        sweep killed mid-run keeps everything already finished.
        """

        def on_result(position: int, result: RunResult) -> None:
            index, spec = pending[position]
            if self.journal is not None:
                self.journal.put(spec, result)
            results[index] = result

        self.executor.map(execute_trial, [spec for _, spec in pending],
                          on_result=on_result)

    def run_cells(self, plan: TrialPlan) -> dict[tuple, list[RunResult]]:
        """Execute a plan and group results by spec ``cell``.

        Returns ``{(platform, workload, runtime, secure): [results in
        trial order]}`` — the shape every aggregating harness wants.
        """
        grouped: dict[tuple, list[RunResult]] = {}
        for spec, result in zip(plan, self.run(plan)):
            grouped.setdefault(spec.cell, []).append(result)
        return grouped
