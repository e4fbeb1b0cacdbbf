"""The shared attempt helper against the retry loops it replaced.

``execute_trial`` and ``TeePool.run_resilient`` both run their retries
through :class:`repro.sim.faults.Retries`.  The loops they used to
carry are kept here verbatim as oracles, with the old ``RetryPolicy``
defaults written in (three attempts, a 2 ms backoff doubling per
attempt, no deadline).  On generated fault plans, budgets and pools,
both sides must agree on every result field the retry rule touches,
on the trace's ``failure``/``retry`` spans, and on which requests
exhaust the pool.
"""

from dataclasses import dataclass, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attest.service import LaunchAttestor
from repro.core.host import Host
from repro.core.pool import TeePool
from repro.core.runner import (
    TrialSpec,
    _attempt_trial,
    _degraded_result,
    _over_budget,
    execute_trial,
)
from repro.errors import (
    AttestationError,
    PoolExhaustedError,
    TrialBudgetError,
    VmCrashError,
    VmError,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import (
    FailureLog,
    FaultContext,
    FaultKind,
    FaultPlan,
)
from repro.sim.ledger import CostCategory
from repro.sim.trace import Trace
from repro.tee.registry import platform_by_name
from repro.tee.vm import VmState


@dataclass(frozen=True)
class OraclePolicy:
    """The old ``RetryPolicy`` at its defaults, the only values used."""

    max_attempts: int = 3
    backoff_base_ns: float = 2_000_000.0
    backoff_factor: float = 2.0
    deadline_ns: float | None = None

    def backoff_ns(self, attempt: int) -> float:
        return self.backoff_base_ns * self.backoff_factor ** attempt

    def allows(self, attempt: int, spent_ns: float) -> bool:
        if attempt >= self.max_attempts:
            return False
        if self.deadline_ns is not None and spent_ns >= self.deadline_ns:
            return False
        return True


DEFAULT_RETRY_POLICY = OraclePolicy()


def oracle_execute_trial(spec: TrialSpec):
    """``execute_trial``'s faulted branch as it was before the helper."""
    plan = spec.fault_plan()
    assert plan is not None and plan.active

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


def oracle_run_resilient(self: TeePool, workload, name: str, trial: int):
    """``TeePool.run_resilient`` as it was before the helper."""
    self.retry_policy = DEFAULT_RETRY_POLICY
    failures = FailureLog()
    injected: list[str] = []
    attempt = 0
    last_exc: Exception | None = None
    while self.retry_policy.allows(attempt, failures.surcharge_ns):
        try:
            worker = self.pick()
        except PoolExhaustedError as exc:
            last_exc = exc
            break
        faults = None
        if self.faults is not None and self.faults.active:
            side = "secure" if self.secure else "normal"
            faults = FaultContext(
                self.faults,
                f"pool/{self.platform}/{side}/{name}/t{trial}/a{attempt}",
            )
            if (faults.triggers(FaultKind.VM_CRASH, "worker")
                    and worker.vm.state is not VmState.DESTROYED):
                worker.vm.state = VmState.DESTROYED
        admission_ns = self._admit_worker(worker)
        trace = Trace()
        failures.replay(trace)
        try:
            result = self.run_on(worker, workload, name=name, trial=trial,
                                 trace=trace, faults=faults)
        except VmError as exc:
            self.evict(worker)
            wasted = getattr(exc, "wasted_ns", 0.0)
            if self.respawn is not None:
                replacement = self.respawn(worker)
                if replacement is not None:
                    self._count("respawns")
                    wasted += replacement.vm.boot_time_ns
            failures.add(type(exc).__name__, wasted_ns=wasted,
                         backoff_ns=self.retry_policy.backoff_ns(attempt))
            if faults is not None:
                injected.extend(faults.injected)
            last_exc = exc
            attempt += 1
            continue
        if faults is not None:
            injected.extend(faults.injected)
        surcharge = failures.surcharge_ns + admission_ns
        if surcharge > 0:
            result.ledger.charge(CostCategory.STARTUP, surcharge)
            result.total_ns += surcharge
        if attempt or injected:
            result.attempts = attempt + 1
            result.faults_injected = tuple(injected)
        self._count("served")
        return result
    raise PoolExhaustedError(
        f"pool {self.platform}/{'secure' if self.secure else 'normal'}: "
        f"request {name!r} trial {trial} failed after {attempt} "
        f"attempt(s)"
    ) from last_exc


def observed(result) -> tuple:
    """Everything the retry rule writes into a result."""
    return (
        result.output,
        result.ledger.breakdown(),
        result.total_ns,
        result.elapsed_ns,
        result.attempts,
        result.faults_injected,
        result.degraded,
        [(span.name, span.start_ns, span.end_ns, span.breakdown)
         for span in result.trace.spans
         if span.name in ("failure", "retry")],
    )


RATES = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0])

fault_plans = st.builds(
    lambda crash, transient, timeout, slow, seed: FaultPlan(
        seed=seed,
        rates={FaultKind.VM_CRASH: crash,
               FaultKind.ATTEST_TRANSIENT: transient,
               FaultKind.PCS_TIMEOUT: timeout,
               FaultKind.SLOW_TRIAL: slow}),
    RATES, RATES, RATES, st.sampled_from([0.0, 0.5]),
    st.integers(0, 10_000),
)

#: (kind, workload, runtime, platform) with a body cheap enough to
#: run hundreds of times; the attestation bodies reach both verifiers
TRIAL_KINDS = st.sampled_from([
    ("faas", "cpustress", "lua", "tdx"),
    ("attestation", "tdx-attestation", None, "tdx"),
    ("attestation", "snp-attestation", None, "sev-snp"),
])

#: 0 means no budget; the others sit near the trials' own totals
#: (faas about 4.3e6 ns, TDX attestation about 5.3e8 ns)
BUDGETS = st.sampled_from([0.0, 1e6, 5e6, 1.5e7, 6e8, 2e9])


class TestRunnerOracle:
    @settings(max_examples=150, deadline=None)
    @given(plan=fault_plans, cell=TRIAL_KINDS, budget=BUDGETS,
           trial=st.integers(0, 50), secure=st.booleans())
    def test_execute_trial_matches_the_old_loop(self, plan, cell, budget,
                                                 trial, secure):
        if not plan.active:
            plan = FaultPlan(seed=plan.seed,
                             rates={FaultKind.VM_CRASH: 0.3})
        kind, workload, runtime, platform = cell
        spec = replace(
            TrialSpec.make(kind=kind, platform=platform, secure=secure,
                           workload=workload, runtime=runtime,
                           trial=trial, seed=1, budget_ns=budget),
            faults=plan.to_spec())
        assert observed(execute_trial(spec)) == observed(
            oracle_execute_trial(spec))


def make_pool(workers: int, respawn: bool, plan: FaultPlan,
              attest: bool) -> TeePool:
    host = Host(name="oracle/tdx", platform=platform_by_name("tdx", seed=2))
    pool = TeePool(platform="tdx", secure=True, faults=plan,
                   metrics=MetricsRegistry())
    for port in range(9100, 9100 + workers):
        pool.add_worker(host.provision_vm(port, secure=True), port)
    if respawn:
        def replace_worker(worker):
            vm = host.respawn_vm(worker.port)
            return pool.add_worker(vm, worker.port)

        pool.respawn = replace_worker
    if attest:
        pool.attestor = LaunchAttestor("tdx", seed=1)
    return pool


def drive(pool: TeePool, run, requests: int) -> list:
    """Send ``requests`` requests through ``run``; record each outcome."""
    outcomes = []
    for trial in range(requests):
        try:
            result = run(pool, lambda k: trial, name="fn", trial=trial)
        except PoolExhaustedError as exc:
            outcomes.append(("exhausted", str(exc)))
        else:
            outcomes.append(observed(result))
    return outcomes


def pool_state(pool: TeePool) -> tuple:
    return (pool.evictions,
            [worker.port for worker in pool.workers],
            [(worker.served, worker.failed, worker.attested)
             for worker in pool.workers],
            pool.metrics.snapshot())


class TestPoolOracle:
    @settings(max_examples=150, deadline=None)
    @given(plan=fault_plans, workers=st.integers(1, 4),
           respawn=st.booleans(), attest=st.booleans(),
           requests=st.integers(1, 6))
    def test_run_resilient_matches_the_old_loop(self, plan, workers,
                                                respawn, attest, requests):
        new = make_pool(workers, respawn, plan, attest)
        old = make_pool(workers, respawn, plan, attest)
        assert drive(new, TeePool.run_resilient, requests) == drive(
            old, oracle_run_resilient, requests)
        assert pool_state(new) == pool_state(old)
