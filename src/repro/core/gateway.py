"""The ConfBench gateway.

The entry point for all requests (§III-A): it owns the function
store, the host fleet, the TEE pools, and a perf monitor per
platform.  ``invoke`` runs one request end-to-end the way Fig. 2
draws it: ① function + arguments arrive, ② the gateway picks normal
vs. secure and the platform, ③ the request goes to the host, ④ the
host routes by port to the VM, which executes and returns the result
with perf metrics piggybacked.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import GatewayConfig, default_config
from repro.core.dispatch import DispatchModel
from repro.core.host import Host
from repro.core.launcher import FunctionLauncher, native_launcher
from repro.core.monitor import PerfMonitor
from repro.core.pool import LoadBalancingPolicy, TeePool
from repro.core.results import InvocationRecord
from repro.core.storage import FunctionStore
from repro.errors import GatewayError, OverloadedError, PoolExhaustedError
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import FaultPlan
from repro.tee.registry import platform_by_name
from repro.tee.vm import RunResult

#: the 429 hint's estimate of how long one backlogged trial takes to
#: drain — a config constant, so ``retry_after_ns`` is a pure function
#: of the backlog depth at rejection time
SHED_RETRY_NS_PER_TRIAL = 50_000_000.0


#: the supervision counters ``Gateway.stats()`` reports, in
#: ``GET /v1/stats`` order; each is the registry counter ``gateway.<key>``
_STATS_KEYS = ("invocations", "trials_requested", "trials_completed",
               "trials_degraded", "trials_shed", "invocations_rejected")


@dataclass
class InvocationRequest:
    """What a user submits."""

    function: str
    language: str | None = None        # None = classic (native) workload
    platform: str = "tdx"
    secure: bool = True
    args: dict[str, Any] = field(default_factory=dict)
    trials: int | None = None          # None = config default


class Gateway:
    """Receives, dispatches, and returns workload requests."""

    def __init__(self, config: GatewayConfig | None = None,
                 faults: "FaultPlan | str | None" = None,
                 max_pending: int | None = None,
                 attest_launches: bool = False) -> None:
        self.config = config if config is not None else default_config()
        self.faults = FaultPlan.parse(faults) if faults is not None else None
        if max_pending is not None and max_pending < 1:
            raise GatewayError(
                f"max_pending must be >= 1, got {max_pending}")
        #: admission-control bound: at most this many trials of one
        #: invocation are admitted to the trial queue; overflow trials
        #: are *shed* (returned as zero-attempt records) instead of
        #: queued without bound.  None = admit everything.
        self.max_pending = max_pending
        #: cross-invocation backlog: trials admitted but not yet done,
        #: summed over concurrent invocations (the REST server is
        #: threaded, so invocations genuinely overlap).  Guarded by a
        #: lock; when an arriving invocation finds the backlog already
        #: at ``max_pending``, it is refused whole with
        #: :class:`~repro.errors.OverloadedError` (HTTP 429) carrying a
        #: deterministic drain-time hint.
        self._backlog_lock = threading.Lock()
        self._backlog_trials = 0
        #: unified telemetry registry (shared with every pool and
        #: attestor) — what ``GET /v1/metrics`` and
        #: ``ConfBench.metrics()`` serve, and where :meth:`stats` reads
        #: the ``gateway.*`` supervision counters
        self.metrics = MetricsRegistry()
        #: every RunResult produced through this gateway, in invocation
        #: order — the trace/profile exporters fold these span trees
        self.run_log: list[RunResult] = []
        self.store = FunctionStore()
        self.hosts: dict[str, Host] = {}
        self.pools: dict[tuple[str, bool], TeePool] = {}
        self.monitors: dict[str, PerfMonitor] = {}
        #: per-platform launch attestors (opt-in via ``attest_launches``)
        self.attestors: dict[str, "object"] = {}
        self.dispatch_model = DispatchModel()
        policy = LoadBalancingPolicy.parse(self.config.load_balancing)
        if attest_launches:
            from repro.attest.service import LaunchAttestor

            for entry in self.config.entries:
                if entry.platform in LaunchAttestor.SUPPORTED:
                    self.attestors[entry.platform] = LaunchAttestor(
                        entry.platform, seed=entry.seed,
                        metrics=self.metrics)
        for entry in self.config.entries:
            platform = platform_by_name(entry.platform, seed=entry.seed)
            host = Host(name=entry.host + "/" + entry.platform,
                        platform=platform)
            self.hosts[entry.platform] = host
            self.monitors[entry.platform] = PerfMonitor(platform=platform)
            ports = entry.ports()
            secure_pool = TeePool(platform=entry.platform, secure=True,
                                  policy=policy)
            normal_pool = TeePool(platform=entry.platform, secure=False,
                                  policy=policy)
            for offset, port in enumerate(ports):
                secure = offset % 2 == 0
                vm = host.provision_vm(port, secure=secure)
                (secure_pool if secure else normal_pool).add_worker(vm, port)
            for pool in (secure_pool, normal_pool):
                pool.respawn = self._respawner(host, pool)
                pool.faults = self.faults
                pool.metrics = self.metrics
            # only secure pools attest: a normal VM has no launch
            # measurement to verify
            secure_pool.attestor = self.attestors.get(entry.platform)
            self.pools[(entry.platform, True)] = secure_pool
            self.pools[(entry.platform, False)] = normal_pool
        #: lazily-built cluster/KBS control plane (``/v1/cluster/*``,
        #: ``/v1/kbs/release``); import deferred so plain invocation
        #: gateways never pay for the cluster layer
        self._cluster: "object | None" = None

    def cluster(self):
        """The cluster sweep + key-release control plane (lazy)."""
        if self._cluster is None:
            from repro.core.cluster.control import ClusterControl

            seed = (self.config.entries[0].seed
                    if self.config.entries else 0)
            self._cluster = ClusterControl(seed=seed)
        return self._cluster

    @staticmethod
    def _respawner(host: Host, pool: TeePool):
        """The evict-then-respawn hook wired into each pool.

        When a pool evicts a dead worker, the host replaces the VM on
        the same port and the replacement rejoins the pool — the
        failure-handling behaviour a cloud operator expects, instead of
        the pool quietly shrinking to exhaustion.
        """

        def respawn(worker):
            vm = host.respawn_vm(worker.port)
            return pool.add_worker(vm, worker.port)

        return respawn

    # -- uploads ---------------------------------------------------------

    def upload(self, function_name: str,
               languages: tuple[str, ...] | None = None) -> None:
        """Upload a built-in workload to the function database."""
        self.store.upload_builtin(function_name, languages)

    def upload_custom(self, workload,
                      languages: tuple[str, ...] | None = None) -> None:
        """Upload a user-supplied workload object."""
        self.store.upload_custom(workload, languages)

    # -- dispatch -----------------------------------------------------------

    def _pool(self, platform: str, secure: bool) -> TeePool:
        try:
            return self.pools[(platform, secure)]
        except KeyError:
            raise GatewayError(
                f"no pool for platform {platform!r} "
                f"({'secure' if secure else 'normal'})"
            ) from None

    def _resolve_trials(self, trials: int | None) -> int:
        """Uniform ``trials`` semantics: None means the config default."""
        resolved = (trials if trials is not None
                    else self.config.default_trials)
        if resolved < 1:
            raise GatewayError(f"trials must be >= 1, got {resolved}")
        return resolved

    def invoke(self, request: InvocationRequest) -> list[InvocationRecord]:
        """Run a request for its configured number of trials."""
        trials = self._resolve_trials(request.trials)
        if request.language is None:
            raise GatewayError(
                "FaaS invocations need a language; classic executables go "
                "through invoke_classic() (the cross-compile-and-submit path)"
            )
        stored = self.store.require_language(request.function, request.language)
        launcher = FunctionLauncher.for_language(request.language)
        body = launcher.launch(stored.workload, request.args)
        return self._run_invocation(body, request.function, request.language,
                                    request.platform, request.secure, trials)

    def invoke_classic(self, name: str, fn, *, platform: str = "tdx",
                       secure: bool = True, trials: int | None = None,
                       ) -> list[InvocationRecord]:
        """Run a classic (non-FaaS) workload callable.

        ``fn`` receives the guest kernel; no language runtime is
        involved (the paper's cross-compiled-executable path).  The
        signature mirrors :meth:`invoke`'s keyword surface: ``platform``
        / ``secure`` / ``trials`` are keyword-only and ``trials=None``
        means the config default, the same semantics FaaS invocations
        get.
        """
        trials = self._resolve_trials(trials)
        return self._run_invocation(native_launcher(fn), name, None,
                                    platform, secure, trials)

    def _run_invocation(self, body, function: str, language: str | None,
                        platform: str, secure: bool,
                        trials: int) -> list[InvocationRecord]:
        """The one trial loop behind :meth:`invoke` and :meth:`invoke_classic`.

        Trials run serially in-process against the long-lived pool VMs,
        so run-log and telemetry emission order is invocation order —
        deterministic for identical request sequences.  With
        :attr:`max_pending` set, only that many trials of an invocation
        are admitted; overflow trials are shed deterministically — the
        highest trial indices, the ones that would sit deepest in the
        queue — as marked zero-attempt records, never silently dropped.
        FaaS requests (those with a ``language``) also pay the
        dispatch model's transport round trip.
        """
        pool = self._pool(platform, secure)
        monitor = self.monitors[platform]
        host_platform = self.hosts[platform].platform
        self._admit_invocation(trials)
        records: list[InvocationRecord] = []
        try:
            for trial in range(trials):
                if self.max_pending is not None and trial >= self.max_pending:
                    records.append(self._unrun_record(
                        pool, function, language, trial, shed=True))
                    continue
                try:
                    run = pool.run_resilient(body, name=function, trial=trial)
                except PoolExhaustedError:
                    if self.faults is None or not self.faults.active:
                        raise
                    records.append(self._unrun_record(
                        pool, function, language, trial, shed=False))
                    continue
                self.run_log.append(run)
                run.emit(self.metrics)
                report = monitor.collect(run)
                records.append(InvocationRecord.from_run(
                    run, function=function, language=language,
                    perf=dict(report.events),
                    transport_ns=(
                        0.0 if language is None
                        else self.dispatch_model.round_trip_ns(host_platform)),
                ))
        finally:
            self._release_invocation(trials)
        return self._account(trials, records)

    def _admit_invocation(self, trials: int) -> None:
        """Admit (or refuse) a whole invocation against the backlog.

        A single invocation from idle is always admitted — per-trial
        shedding inside :meth:`_run_invocation` still applies — so
        serial usage is unchanged.  Only when *concurrent* invocations
        have already filled the backlog to ``max_pending`` is the
        newcomer refused, with ``retry_after_ns`` estimating the
        backlog's drain time (a pure function of the depth at
        rejection).
        """
        if self.max_pending is None:
            return
        with self._backlog_lock:
            backlog = self._backlog_trials
            if backlog >= self.max_pending:
                self.metrics.count("gateway.invocations_rejected", 1)
                excess = backlog + trials - self.max_pending
                raise OverloadedError(
                    f"gateway backlog at capacity ({backlog}/"
                    f"{self.max_pending} trials pending); retry later",
                    retry_after_ns=max(excess, 1) * SHED_RETRY_NS_PER_TRIAL,
                )
            self._backlog_trials = backlog + trials

    def _release_invocation(self, trials: int) -> None:
        if self.max_pending is None:
            return
        with self._backlog_lock:
            self._backlog_trials -= trials

    def _account(self, trials: int,
                 records: list[InvocationRecord]) -> list[InvocationRecord]:
        """Fold one invocation's outcome into the ``gateway.*`` counters.

        Every requested trial lands in exactly one outcome bucket —
        completed, degraded or shed — which is what keeps
        :meth:`stats`'s conservation invariant.
        """
        shed = sum(1 for record in records if record.shed)
        degraded = sum(1 for record in records
                       if record.degraded and not record.shed)
        self.metrics.count("gateway.invocations", 1)
        self.metrics.count("gateway.trials_requested", trials)
        for key, amount in (("trials_shed", shed),
                            ("trials_degraded", degraded),
                            ("trials_completed",
                             len(records) - shed - degraded)):
            if amount:
                self.metrics.count(f"gateway.{key}", amount)
        return records

    def _unrun_record(self, pool: TeePool, function: str,
                      language: str | None, trial: int,
                      shed: bool) -> InvocationRecord:
        """The record of a trial that produced no measurement.

        A *shed* trial was refused at admission: ``attempts`` is 0,
        since nothing ran.  Otherwise the trial degraded once the
        pool's retries ran out — only when fault injection is active,
        since without faults an exhausted pool is a configuration
        problem and the loop re-raises.  Either way every requested
        trial stays present in the response, marked ``degraded=True``.
        """
        return InvocationRecord(
            function=function,
            language=language,
            platform=pool.platform,
            secure=pool.secure,
            trial=trial,
            elapsed_ns=0.0,
            output=None,
            perf={},
            attempts=0 if shed else pool.retry_policy.max_attempts,
            degraded=True,
            shed=shed,
        )

    # -- introspection -----------------------------------------------------------

    def platforms(self) -> list[dict[str, Any]]:
        """Platform facts (what GET /platforms returns)."""
        return [
            {
                "name": entry.platform,
                "host": entry.host,
                "ports": entry.ports(),
                **vars(self.hosts[entry.platform].platform.info()),
            }
            for entry in self.config.entries
        ]

    def stats(self) -> dict[str, int]:
        """Supervision counters (what ``GET /v1/stats`` returns).

        Read from the ``gateway.*`` registry counters without creating
        any, so asking does not change ``GET /v1/metrics``.  Requested
        trials are conserved: ``trials_requested == trials_completed +
        trials_degraded + trials_shed``.  ``invocations_rejected``
        counts whole invocations refused at admission (HTTP 429); their
        trials never entered the queue, so they are not requested.
        """
        return {key: self.metrics.counter_value(f"gateway.{key}")
                for key in _STATS_KEYS}

    def functions(self) -> list[str]:
        """Uploaded function names."""
        return self.store.names()
