"""Attestation scenarios: one Fig. 5 round, and a fleet's worth of them.

Both kinds take an attestation *flavor* as their workload and build
its platform infrastructure the same way.  The signing keys are
long-lived in reality, so their stream comes from a params-level seed,
not the trial's: keys stay identical across trials (the keygen cache
in repro.attest.crypto hits) while the objects are rebuilt per trial.
The circuit breaker is per trial, seeded from the trial's own stream,
so no state leaks between trials and each stays a pure function of
its spec.
"""

from __future__ import annotations

from typing import Callable

from repro.core.runner import RunnerError, TrialSpec, body_factory
from repro.core.scenarios.counters import fold_counters
from repro.errors import AttestationError
from repro.sim.faults import CircuitBreaker
from repro.sim.rng import SimRng, derive_seed

#: flavor -> (platform, the breaker guarding its flaky dependency)
_FLAVORS = {
    "tdx-attestation": ("tdx", "pcs"),
    "snp-attestation": ("sev-snp", "vcek"),
}

#: platform -> (trace span, verifier host) per launch wave.  SNP has no
#: networked collateral, so its scenario is two waves: full local
#: verification, then session resumption.
_WAVES = {
    "tdx": (("wave1-host-a", "host-a"), ("wave2-host-b", "host-b"),
            ("wave3-resume", "host-a")),
    "sev-snp": (("wave1-verify", "host-a"), ("wave2-resume", "host-a")),
}

#: launches arrive 1 ms apart within a wave
_WAVE_GAP_NS = 1_000_000.0


def _flavor(spec: TrialSpec) -> str:
    if spec.workload not in _FLAVORS:
        raise RunnerError(f"unknown attestation flavor {spec.workload!r}")
    return spec.workload


def _infrastructure(flavor: str, infra_seed: int, label: str, ctx):
    """The flavor's platform infrastructure for one trial."""
    from repro.attest.service import AttestationInfrastructure

    platform, breaker = _FLAVORS[flavor]
    breaker_seed = derive_seed(ctx.rng.seed, f"{ctx.rng.label}/breaker")
    return AttestationInfrastructure(
        platform, SimRng(infra_seed, f"{label}/{flavor}"),
        breaker=CircuitBreaker(breaker, seed=breaker_seed, trace=ctx.trace))


@body_factory("attestation")
def _attestation_body(spec: TrialSpec) -> Callable:
    """One attest + check round, phases traced as sub-spans (Fig. 5)."""
    flavor = _flavor(spec)
    infra_seed = spec.params.get("infra_seed", 0)

    def body(kernel):
        ctx = kernel.ctx
        infra = _infrastructure(flavor, infra_seed, "attest-infra", ctx)
        nonce = ctx.rng.child("nonce").bytes(16)
        with ctx.trace.span("attest", ctx):
            evidence = infra.evidence(ctx, nonce)
        with ctx.trace.span("check", ctx):
            verdict = infra.verifier().verify(
                evidence, ctx, expected_report_data=nonce)
        if not verdict.accepted:
            raise AttestationError(
                f"{flavor}: verification unexpectedly rejected")
        return {"accepted": verdict.accepted}

    return body


@body_factory("attestation-service")
def _attestation_service_body(spec: TrialSpec) -> Callable:
    """A fleet's worth of launches through the verifier service.

    One trial models the Fig. 5 extension scenario end to end: two
    verifier hosts share a cluster CDN tier in front of one PCS
    origin, and three launch waves exercise every cache tier —

    1. wave 1 on host A: the first tenant pays the origin fetches,
       the rest hit the warmed host tier;
    2. wave 2 on host B: a cold host tier but a warm CDN — every
       launch resolves collateral one LAN hop away;
    3. wave 3 on host A: the same tenants return and resume their
       attestation sessions, skipping evidence generation and
       verification entirely.

    SNP runs the two waves in :data:`_WAVES`.  The body returns
    per-tier latencies plus the service/tier counters and a
    reconciliation flag (origin fetches vs clean ``request_log``
    entries) so the experiment can fold them deterministically.
    """
    from repro.attest.tiers import TierStore

    flavor = _flavor(spec)
    infra_seed = spec.params.get("infra_seed", 0)
    tenants = spec.params.get("tenants", 3)
    concurrency = spec.params.get("concurrency", 2)
    measurements = [f"tenant-{index}" for index in range(tenants)]

    def body(kernel):
        ctx = kernel.ctx
        infra = _infrastructure(flavor, infra_seed,
                                "attest-service-infra", ctx)
        waves = _WAVES[infra.platform]
        cdn = TierStore()
        prefix = flavor.partition("-")[0]
        services = {
            host: infra.service(f"{prefix}-{host}", cdn=cdn,
                                concurrency=concurrency)
            for host in dict.fromkeys(host for _, host in waves)
        }
        tiers: dict[str, list[float]] = {}
        queue_waits: list[float] = []
        for wave, (span, host) in enumerate(waves, start=1):
            jobs = [
                infra.job(measurement,
                          ctx.rng.child(
                              f"nonce/w{wave}/{measurement}").bytes(16),
                          arrival_ns=index * _WAVE_GAP_NS)
                for index, measurement in enumerate(measurements)
            ]
            with ctx.trace.span(span, ctx):
                verdicts = services[host].process_batch(jobs, ctx)
            # per-tier table uses verify_ns (the attestation cost the
            # tier determines); queue waits are load, tracked apart
            for verdict in verdicts:
                if not verdict.accepted:
                    raise AttestationError(
                        f"{flavor}: service unexpectedly rejected "
                        f"{verdict.measurement}")
                tiers.setdefault(verdict.tier, []).append(verdict.verify_ns)
                queue_waits.append(verdict.queue_wait_ns)

        sources = []
        origin_fetches = 0
        for host, service in services.items():
            sources += [(f"service.{host}", service.stats),
                        (f"sessions.{host}", service.sessions.stats)]
            if service.collateral is not None:
                sources.append((f"collateral.{host}",
                                service.collateral.stats))
                origin_fetches += service.collateral.stats["origin.fetches"]
        clean_log_entries = (infra.pcs.request_log.clean
                             if infra.pcs is not None else 0)
        counters, reconciled = fold_counters(
            sources, [(origin_fetches, clean_log_entries)])
        return {
            "tiers": {tier: sorted(values)
                      for tier, values in sorted(tiers.items())},
            "queue_wait_ns": queue_waits,
            "counters": counters,
            "reconciled": reconciled,
            "origin_fetches": origin_fetches,
            "clean_log_entries": clean_log_entries,
            "queue_depth_peak": max(service.queue_depth_peak
                                    for service in services.values()),
        }

    return body
