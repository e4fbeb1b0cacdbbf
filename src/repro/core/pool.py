"""TEE pools and load balancing.

§III-A: "the gateway maintains *TEE pools* to load-balance workload
requests across different types of TEEs.  Cloud provider users would
adjust the load-balancing policy to their internal needs."  A pool
holds the workers (VM slots) of one platform kind; the policy picks
which worker takes the next request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import PoolExhaustedError, VmError
from repro.sim.faults import (
    FailureLog,
    FaultContext,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from repro.sim.ledger import CostCategory
from repro.sim.rng import SimRng
from repro.sim.trace import Trace
from repro.tee.vm import Vm, VmState


class LoadBalancingPolicy(enum.Enum):
    """Worker selection strategies."""

    ROUND_ROBIN = "round-robin"
    LEAST_LOADED = "least-loaded"
    RANDOM = "random"

    @classmethod
    def parse(cls, name: str) -> "LoadBalancingPolicy":
        for policy in cls:
            if policy.value == name:
                return policy
        known = ", ".join(policy.value for policy in cls)
        raise ValueError(f"unknown policy {name!r}; known: {known}")


@dataclass
class Worker:
    """One VM slot in a pool."""

    vm: Vm
    port: int
    inflight: int = 0
    served: int = 0      # successful runs only
    failed: int = 0      # runs that raised
    #: whether this VM passed launch attestation (pools with an
    #: attestor admit each worker once, before its first dispatch)
    attested: bool = False


@dataclass
class TeePool:
    """The workers of one (platform, secure-flag) combination."""

    platform: str
    secure: bool
    policy: LoadBalancingPolicy = LoadBalancingPolicy.ROUND_ROBIN
    workers: list[Worker] = field(default_factory=list)
    _cursor: int = 0
    _rng: SimRng = field(default_factory=lambda: SimRng(0, "pool"))
    #: bounds the failover loop in :meth:`run_resilient`
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: optional ``worker -> Worker | None`` callable replacing an
    #: evicted worker (the gateway wires :meth:`Host.respawn_vm` here)
    respawn: "object | None" = None
    #: optional :class:`FaultPlan` injecting worker failures
    faults: FaultPlan | None = None
    #: supervision counters: dead workers removed / replacements added
    evictions: int = 0
    respawns: int = 0
    #: optional metrics sink (the :mod:`repro.obs` protocol); the
    #: gateway wires its registry in so pool supervision shows up in
    #: ``GET /v1/metrics``
    metrics: "object | None" = None
    #: optional :class:`~repro.attest.service.LaunchAttestor`; when set
    #: on a secure pool, each worker is attested before its first
    #: dispatch and the attestation latency is charged to the serving
    #: result's STARTUP bucket.  A respawned worker re-attests under
    #: the same port identity, so it *resumes* its predecessor's
    #: attestation session instead of paying the full flow again.
    attestor: "object | None" = None
    #: optional :class:`~repro.supply.LaunchProvisioner`; when set on a
    #: secure pool it replaces the bare attestor on first dispatch —
    #: the worker's admission then runs the whole supply chain
    #: (attest → KBS key release → image pull/verify/decrypt/unpack)
    #: and the full provisioning latency lands in STARTUP, putting the
    #: supply-chain tax on the boot critical path
    provisioner: "object | None" = None

    @property
    def side(self) -> str:
        """``"secure"`` or ``"normal"`` — the metric/display key."""
        return "secure" if self.secure else "normal"

    def _count(self, event: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(
                f"pool.{self.platform}.{self.side}.{event}", amount)

    def add_worker(self, vm: Vm, port: int) -> Worker:
        """Register a booted VM as a pool worker."""
        worker = Worker(vm=vm, port=port)
        self.workers.append(worker)
        return worker

    def pick(self) -> Worker:
        """Select a worker per the active policy."""
        if not self.workers:
            raise PoolExhaustedError(
                f"pool {self.platform}/{'secure' if self.secure else 'normal'} "
                "has no workers"
            )
        if self.policy is LoadBalancingPolicy.ROUND_ROBIN:
            # keep the cursor bounded so eviction arithmetic stays exact
            index = self._cursor % len(self.workers)
            worker = self.workers[index]
            self._cursor = (index + 1) % len(self.workers)
        elif self.policy is LoadBalancingPolicy.LEAST_LOADED:
            worker = min(self.workers, key=lambda w: (w.inflight, w.served))
        else:
            worker = self._rng.choice(self.workers)
        return worker

    def run_on(self, worker: Worker, workload, name: str, trial: int,
               trace: Trace | None = None, faults: FaultContext | None = None):
        """Execute on a specific worker with load tracking.

        ``served`` counts *successful* runs only; a run that raises
        increments ``failed`` instead, so the least-loaded policy's
        view of past work is not inflated by dead attempts.
        """
        worker.inflight += 1
        try:
            result = worker.vm.run(workload, name=name, trial=trial,
                                   trace=trace, faults=faults)
        except Exception:
            worker.failed += 1
            raise
        finally:
            worker.inflight -= 1
        worker.served += 1
        return result

    def run_resilient(self, workload, name: str, trial: int):
        """Pick a worker and execute, failing over on dead VMs.

        A worker whose VM has been destroyed (or refuses to run) is
        evicted from the pool; if :attr:`respawn` is wired, a
        replacement worker is provisioned in its place, and the request
        is retried on the next pick — bounded by :attr:`retry_policy`
        rather than looping forever.  The wasted virtual time of the
        dead attempts plus the retry backoff is charged to the
        surviving result's STARTUP bucket (visible in ``total_ns``,
        excluded from the paper's ``elapsed_ns`` metric).

        With :attr:`faults` set, each attempt can inject a worker
        failure (the VM is destroyed just before dispatch) drawn from
        the plan's seeded substreams.

        Raises :class:`PoolExhaustedError` when no worker survives
        within the policy's bounds.
        """
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
                        self.respawns += 1
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

    def _admit_worker(self, worker: Worker) -> float:
        """Launch-attest a worker on its first dispatch.

        Returns the admission latency in virtual ns (0.0 when no
        attestor is wired, the pool is not secure, or the worker was
        already admitted).  The identity presented is the *port slot*,
        not the VM id, so a respawned replacement resumes the dead
        worker's attestation session — the same image on the same slot
        re-attests cheaply, exactly the warm-relaunch path the
        verifier service models.
        """
        if not self.secure or worker.attested:
            return 0.0
        if self.provisioner is not None:
            report = self.provisioner.provision(
                f"{self.platform}/port-{worker.port}")
            worker.attested = True
            self._count("attested")
            self._count("provisioned")
            if report.resumed:
                self._count("attest_resumed")
            return report.admission_ns
        if self.attestor is None:
            return 0.0
        admission = self.attestor.admit(
            f"{self.platform}/port-{worker.port}")
        worker.attested = True
        self._count("attested")
        if admission.verdict.resumed:
            self._count("attest_resumed")
        return admission.latency_ns

    def evict(self, worker: Worker) -> None:
        """Remove a failed worker from rotation.

        The round-robin cursor indexes into ``workers``, so deleting
        an entry must shift it in step — otherwise the eviction skips
        the healthy worker that slid into the evicted slot.
        """
        try:
            index = self.workers.index(worker)
        except ValueError:
            return   # already evicted by a concurrent path
        del self.workers[index]
        self.evictions += 1
        if not self.workers:
            self._cursor = 0
            return
        if index < self._cursor:
            self._cursor -= 1
        self._cursor %= len(self.workers)
