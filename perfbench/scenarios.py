"""The benchmark's workloads: fixed inputs, one pass, its checks.

Every workload is built from ``(seed, tiny)`` by a factory in
:data:`WORKLOADS` and returns a :class:`Workload`: ``run`` is the
timed pass (public entry points of the program only, serial, no
threads), ``check`` turns what the pass returned into a
:class:`PassResult` outside the timed region.  The seed reaches the
program only as generated inputs: trial seeds, infrastructure seeds
and lazy-pull access patterns.  ``tiny`` shrinks every size so the
harness test runs in seconds; the benchmark itself always runs full
size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.attest.crypto import derived_keypair
from repro.attest.service import LaunchAttestor
from repro.core.runner import TrialPlan, TrialRunner, _cached_body
from repro.errors import ConfBenchError
from repro.experiments.fig5_service import run_fig5_service
from repro.experiments.fig9_cluster import run_fig9
from repro.guestos.filesystem import InMemoryFileSystem
from repro.runtimes.registry import RUNTIME_NAMES
from repro.sim.rng import SimRng
from repro.supply import (
    CHUNK_BYTES,
    KeyBrokerService,
    LaunchProvisioner,
    Registry,
    build_image,
    sign_image,
)
from repro.workloads.faas.registry import FIGURE_WORKLOAD_NAMES


@dataclass
class PassResult:
    """What one pass did, as the benchmark scores it."""

    units: int
    failed: int
    #: canonical simulated outputs; their sha256 is the pass digest
    outputs: list = field(default_factory=list)
    #: exact per-layer values read from the program's outputs and stats
    stats: dict = field(default_factory=dict)
    #: simulated (virtual) seconds the pass covered
    virtual_s: float = 0.0

    @property
    def digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True,
                          separators=(",", ":"), default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Workload:
    """A built workload: ``units`` per pass, the pass, and its check."""

    unit: str
    units: int
    run: Callable[[], Any]
    check: Callable[[Any], PassResult]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- trial sweeps (Figs. 4 and 6) ----------------------------------------

def _trial_sweep(plan: TrialPlan) -> Workload:
    """``TrialRunner(jobs=1).run`` over one plan; a unit is one trial."""
    cache_before: list = []

    def run():
        cache_before[:] = _cached_body.cache_info()[:2]
        return TrialRunner(jobs=1).run(plan)

    def check(results) -> PassResult:
        hits, misses = _cached_body.cache_info()[:2]
        hits -= cache_before[0]
        misses -= cache_before[1]
        degraded = sum(1 for result in results if result.degraded)
        # a trial with no output did no work, even if not flagged
        empty = sum(1 for result in results
                    if not result.degraded and result.output is None)
        return PassResult(
            units=len(plan),
            failed=degraded + empty + len(plan) - len(results),
            outputs=[result.to_dict() for result in results],
            stats={
                "core.trials": len(results),
                "core.degraded_trials": degraded,
                "core.body_cache_hit_ratio": _ratio(hits, hits + misses),
                "hw.instructions": sum(result.counters.instructions
                                       for result in results),
                "hw.vm_transitions": sum(result.counters.vm_transitions
                                         for result in results),
            },
            virtual_s=sum(result.total_ns for result in results) / 1e9,
        )

    return Workload(unit="trial", units=len(plan), run=run, check=check)


def unixbench(seed: int, tiny: bool) -> Workload:
    """Fig. 4: UnixBench on every platform, secure and normal."""
    return _trial_sweep(TrialPlan.matrix(
        kind="unixbench", platforms=("tdx", "sev-snp", "cca"),
        workloads=("unixbench",), trials=1 if tiny else 100, seed=seed,
        params={"scale": 0.3}))


def faas(seed: int, tiny: bool) -> Workload:
    """Fig. 6: every FaaS function under every runtime on TDX/SEV-SNP."""
    return _trial_sweep(TrialPlan.matrix(
        kind="faas", platforms=("tdx", "sev-snp"),
        workloads=FIGURE_WORKLOAD_NAMES[:2] if tiny
        else FIGURE_WORKLOAD_NAMES,
        runtimes=RUNTIME_NAMES[:2] if tiny else RUNTIME_NAMES,
        trials=1, seed=seed))


# -- cluster sweep (Fig. 9 extension) ------------------------------------

#: arrival processes x requests per process; run_fig9's default fleet,
#: rate and fault weather
CLUSTER_REQUESTS = 40_000


def cluster(seed: int, tiny: bool) -> Workload:
    """Fig. 9: one open-loop sweep per arrival process, faults on.

    A unit is one simulated request finalized (served, degraded or
    shed).  Shed requests are far cheaper than served ones, so the
    shed ratio is reported per layer: a change that sheds more would
    look faster here.
    """
    requests = 300 if tiny else CLUSTER_REQUESTS
    processes = 3

    def run():
        runner = TrialRunner(jobs=1)
        run_fig9(seed=seed, trials=1, requests=requests, runner=runner)
        return runner

    def check(runner) -> PassResult:
        reports = [result.output for _, results in runner.history
                   for result in results]
        # a sweep that silently dropped requests fails all of them
        failed = sum(report["requests"] for report in reports
                     if not report["conserved"])
        total = sum(report["requests"] for report in reports)
        boots = sum(report["cold_boots"] + report["warm_starts"]
                    for report in reports)
        return PassResult(
            units=total,
            failed=failed + processes * requests - total,
            outputs=reports,
            stats={
                "sim.events": sum(report["events_processed"]
                                  for report in reports),
                "core.cluster.shed_ratio": _ratio(
                    sum(report["shed"] for report in reports), total),
                "core.cluster.cold_boot_ratio": _ratio(
                    sum(report["cold_boots"] for report in reports), boots),
                "core.cluster.affinity_miss_ratio": _ratio(
                    sum(report["affinity_misses"] for report in reports),
                    total),
                "core.cluster.hedges": sum(report["hedges"]
                                           for report in reports),
                "core.cluster.failovers": sum(report["failovers"]
                                              for report in reports),
                "core.cluster.latency_p99_virtual_ms": sum(
                    report["latency_p99_ns"] for report in reports)
                / len(reports) / 1e6 if reports else 0.0,
            },
            virtual_s=sum(result.total_ns for _, results in runner.history
                          for result in results) / 1e9,
        )

    return Workload(unit="request", units=processes * requests, run=run,
                    check=check)


# -- image boots (Fig. 10 extension) -------------------------------------

IMAGE_PLATFORMS = ("tdx", "sev-snp")
STRATEGIES = ("eager", "lazy")
SIDES = ("secure", "normal")
#: a cold boot, then a relaunch of the same VM id
WAVES = (1, 2)
#: BENCH_10's image: 24 + 16 + 8 chunks of 64 KiB
LAYER_CHUNKS = (24, 16, 8)


@dataclass
class _Chain:
    """One (platform, strategy, side) deployment, fresh every pass."""

    platform: str
    strategy: str
    secure: bool
    registry: Registry
    attestor: LaunchAttestor
    kbs: KeyBrokerService
    provisioner: LaunchProvisioner
    boots: list = field(default_factory=list)


def _boot(chain: _Chain, vm_id: str, wave: int,
          accesses: tuple) -> dict:
    """Boot ``vm_id`` once; a lazy boot then replays its chunk accesses.

    A denied, tampered or otherwise failing boot is recorded, never
    raised, so one bad image cannot abort the run.
    """
    record: dict[str, Any] = {"vm": vm_id, "wave": wave, "ok": False,
                              "resumed": False}
    try:
        if chain.secure:
            report = chain.provisioner.provision(vm_id)
            record["verdict"] = dataclasses.asdict(report.verdict)
            record["release_ns"] = report.release_ns
            record["resumed"] = report.resumed
            pull, image = report.pull, report.image
            virtual_ns = report.admission_ns
        else:
            ctx = chain.attestor.admission_context(vm_id)
            pulled = chain.provisioner.puller().pull(
                "bench", "v1", InMemoryFileSystem(), ctx)
            pull = getattr(pulled, "report", pulled)
            image = pulled if chain.strategy == "lazy" else None
            virtual_ns = ctx.ledger.total()
        if image is not None:
            ctx = chain.attestor.admission_context(f"{vm_id}/run")
            for layer, chunk in accesses:
                image.access(layer, chunk, ctx)
            virtual_ns += ctx.ledger.total()
    except ConfBenchError as exc:
        record["error"] = type(exc).__name__
        return record
    record.update(ok=True, pull=pull.to_dict(), virtual_ns=virtual_ns)
    return record


def image(seed: int, tiny: bool) -> Workload:
    """Fig. 10: eager/lazy x secure/normal boots through ``repro.supply``.

    Secure boots are signed, encrypted and KBS-gated; normal boots pull
    the plaintext image unsigned.  Each deployment boots one VM cold,
    then relaunches it (a secure relaunch must resume its attestation
    session).  A unit is one boot.
    """
    layer_chunks = (2, 1, 1) if tiny else LAYER_CHUNKS
    rng = SimRng(seed, "perfbench/image")
    publisher = derived_keypair(rng.child("publisher"), "publisher")
    bundles = {}
    for side in SIDES:
        bundles[side] = build_image(
            "bench", "v1", rng.child(f"image/{side}"),
            layer_sizes=tuple(n * CHUNK_BYTES for n in layer_chunks),
            encrypted=side == "secure")
    sign_image(bundles["secure"], publisher)
    manifest = bundles["secure"].manifest
    access_rng = rng.child("accesses")
    accesses = {}
    for platform in IMAGE_PLATFORMS:
        for side in SIDES:
            for wave in WAVES:
                picks = []
                for _ in range(2 if tiny else 6):
                    layer = access_rng.randint(0, len(layer_chunks) - 1)
                    picks.append((layer, access_rng.randint(
                        0, layer_chunks[layer] - 1)))
                accesses[platform, side, wave] = tuple(picks)

    def run():
        chains = []
        for platform in IMAGE_PLATFORMS:
            for strategy in STRATEGIES:
                for side in SIDES:
                    secure = side == "secure"
                    bundle = bundles[side]
                    registry = Registry()
                    registry.push(bundle)
                    attestor = LaunchAttestor(platform, seed=seed)
                    kbs = KeyBrokerService(attestor.service)
                    kbs.register_bundle(bundle)
                    chain = _Chain(
                        platform, strategy, secure, registry, attestor,
                        kbs, LaunchProvisioner(
                            attestor, registry, kbs, ("bench", "v1"),
                            publisher_key=publisher.public if secure
                            else None,
                            strategy=strategy,
                            key_ids=bundle.manifest.key_ids))
                    for wave in WAVES:
                        picks = (accesses[platform, side, wave]
                                 if strategy == "lazy" else ())
                        chain.boots.append(_boot(chain, "vm-0", wave,
                                                 picks))
                    chains.append(chain)
        return chains

    def check(chains) -> PassResult:
        failed = fetched = faults = unsealed = 0
        releases = denials = launches = resumed = origin = 0
        local_hits = 0
        boots = []
        virtual_ns = 0.0
        for chain in chains:
            kbs, registry = chain.kbs, chain.registry
            # counters must reconcile with the request logs, as in fig10
            reconciled = (
                kbs.stats["released"] == kbs.clean_log_entries()
                and registry.stats["manifest_fetches"]
                + registry.stats["chunk_fetches"]
                == registry.clean_log_entries())
            for boot in chain.boots:
                bad = (not boot["ok"] or not reconciled
                       or (chain.secure and boot["wave"] == 2
                           and not boot["resumed"]))
                failed += bad
                boots.append({"platform": chain.platform,
                              "strategy": chain.strategy,
                              "secure": chain.secure, **boot})
                if not boot["ok"]:
                    continue
                virtual_ns += boot["virtual_ns"]
                fetched += boot["pull"]["chunks_fetched"]
                faults += boot["pull"]["chunk_faults"]
                if chain.secure:
                    unsealed += boot["pull"]["bytes_pulled"]
            releases += kbs.stats["released"]
            denials += sum(value for name, value in kbs.stats.items()
                           if name.startswith("denied."))
            launches += chain.attestor.service.stats["launches"]
            resumed += chain.attestor.service.stats["resumed"]
            collateral = chain.attestor.collateral
            if collateral is not None:
                origin += collateral.stats["origin.fetches"]
                local_hits += (collateral.stats["host.hits"]
                               + collateral.stats["cdn.hits"])
        total = len(boots)
        return PassResult(
            units=total,
            failed=failed,
            outputs=boots,
            stats={
                "supply.chunks_fetched": fetched,
                "supply.chunk_faults": faults,
                "supply.chunks_touched_ratio": _ratio(
                    fetched, total * manifest.total_chunks),
                "supply.bytes_unsealed": unsealed,
                "supply.key_releases": releases,
                "supply.key_denials": denials,
                "attest.session_resume_ratio": _ratio(resumed, launches),
                "attest.collateral_origin_fetches": origin,
                "attest.collateral_local_hit_ratio": _ratio(
                    local_hits, local_hits + origin),
            },
            virtual_s=virtual_ns / 1e9,
        )

    units = len(IMAGE_PLATFORMS) * len(STRATEGIES) * len(SIDES) * len(WAVES)
    return Workload(unit="boot", units=units, run=run, check=check)


# -- attestation fleet (Fig. 5 extension) --------------------------------

#: launches one fig5x trial pair makes: TDX 3 tenants x 3 waves, SEV-SNP
#: 3 tenants x 2 waves
LAUNCHES_PER_TRIAL = 15


def attest(seed: int, tiny: bool) -> Workload:
    """Fig. 5x: verifier-service launches through the collateral tiers.

    A unit is one launch.  A run that does not reconcile its origin
    fetches with the PCS request log fails every launch in it.
    """
    trials = 1 if tiny else 6

    def run():
        runner = TrialRunner(jobs=1)
        return run_fig5_service(seed=seed, trials=trials,
                                runner=runner), runner

    def check(outcome) -> PassResult:
        result, runner = outcome
        counters = result.counters

        def summed(suffixes, within: str = "") -> int:
            # counter names are "<platform>.<component>.<host>.<stat>"
            return sum(value for name, value in counters.items()
                       if within in name and name.endswith(suffixes))

        launches = summed(".launches", within=".service.")
        resumed = summed(".resumed", within=".service.")
        origin = summed(".origin.fetches")
        local_hits = summed((".host.hits", ".cdn.hits"))
        results = [item for _, batch in runner.history for item in batch]
        expected = trials * LAUNCHES_PER_TRIAL
        waits = result.queue_wait_ns
        return PassResult(
            units=expected,
            failed=0 if result.reconciled and launches == expected
            else expected,
            outputs=[result.tier_latencies_ns, counters,
                     [item.to_dict() for item in results]],
            stats={
                "attest.session_resume_ratio": _ratio(resumed, launches),
                "attest.collateral_origin_fetches": origin,
                "attest.collateral_local_hit_ratio": _ratio(
                    local_hits, local_hits + origin),
                "attest.queue_wait_virtual_ms": (
                    sum(waits.values()) / len(waits) / 1e6
                    if waits else 0.0),
            },
            virtual_s=sum(item.total_ns for item in results) / 1e9,
        )

    return Workload(unit="launch", units=trials * LAUNCHES_PER_TRIAL,
                    run=run, check=check)


#: workload name -> factory(seed, tiny)
WORKLOADS: dict[str, Callable[[int, bool], Workload]] = {
    "unixbench": unixbench,
    "faas": faas,
    "cluster": cluster,
    "image": image,
    "attest": attest,
}
