"""The verifier service: cache tiers, sessions, batch queues.

Covers the tentpole mechanisms end to end: host → CDN → origin
fallback order (with the stale pseudo-tier under origin failure),
session resumption and its three invalidation causes (TCB rotation,
CRL rotation, TTL), and the deterministic bounded-concurrency batch
queue.
"""

import math

import pytest

from repro.attest import (
    AmdKeyInfrastructure,
    IntelPcs,
    LaunchAttestor,
    QuotingEnclave,
    SessionCache,
    SnpVerifier,
    TdxVerifier,
    TieredCollateral,
    VerificationJob,
    VerifierService,
    generate_snp_report,
    generate_tdx_quote,
)
from repro.attest.pcs import FreshnessPolicy
from repro.attest.tiers import TierStore
from repro.errors import AttestationError, CollateralTimeoutError
from repro.guestos.context import ExecContext
from repro.hw.machine import xeon_gold_5515
from repro.sim.faults import CircuitBreaker, FaultContext, FaultPlan
from repro.sim.rng import SimRng
from repro.tee.tdx import TdxModule

ALWAYS_TIMEOUT = FaultPlan.parse("pcs-timeout=1.0,seed=1")
NEVER_COOLS_NS = 1e18


def make_ctx(seed=1, faults=None):
    return ExecContext(machine=xeon_gold_5515(),
                       rng=SimRng(seed, "service-ctx"), faults=faults)


def make_tdx_service(seed=9, cdn=None, concurrency=2, breaker=None,
                     freshness=None):
    infra = SimRng(seed, "svc-infra")
    pcs = IntelPcs(infra, breaker=breaker, freshness=freshness)
    collateral = TieredCollateral(pcs, cdn=cdn, freshness=freshness)
    service = VerifierService(
        "tdx-test", TdxVerifier(pcs, collateral=collateral),
        collateral=collateral, concurrency=concurrency)
    qe = QuotingEnclave(pcs, infra)
    module = TdxModule()

    def job(measurement, ctx, arrival=0.0, wave=0):
        nonce = ctx.rng.child(f"nonce/{wave}/{measurement}").bytes(16)
        return VerificationJob(
            measurement=measurement, nonce=nonce, arrival_ns=arrival,
            build_evidence=lambda c, n=nonce, m=measurement:
                generate_tdx_quote(module, qe, pcs, c, n, td_identity=m))

    return service, pcs, job


class TestTieredCollateral:
    def test_fallback_order_and_charges(self):
        """origin on the cold path, host tier after, CDN for a cold
        host behind a warm cluster — each strictly cheaper."""
        cdn = TierStore()
        service_a, pcs, job = make_tdx_service(cdn=cdn)
        ctx = make_ctx(1)

        before = ctx.ledger.total()
        verdict_origin = service_a.verify_launch(job("m1", ctx), ctx)
        assert verdict_origin.tier == "origin"

        verdict_host = service_a.verify_launch(job("m2", ctx), ctx)
        assert verdict_host.tier == "host"
        assert verdict_host.verify_ns < verdict_origin.verify_ns

        # a second host shares the CDN tier but has a cold host tier
        collateral_b = TieredCollateral(pcs, cdn=cdn)
        service_b = VerifierService(
            "tdx-b", TdxVerifier(pcs, collateral=collateral_b),
            collateral=collateral_b)
        verdict_cdn = service_b.verify_launch(job("m1", ctx, wave=1), ctx)
        assert verdict_cdn.tier == "cdn"
        assert verdict_cdn.verify_ns < verdict_origin.verify_ns

        assert service_a.collateral.stats["origin.fetches"] == 4
        assert service_a.collateral.stats["host.hits"] == 4
        assert collateral_b.stats["cdn.hits"] == 4
        assert ctx.ledger.total() > before

    def test_counters_reconcile_with_request_log(self):
        service, pcs, job = make_tdx_service(seed=10)
        ctx = make_ctx(2)
        service.verify_launch(job("m1", ctx), ctx)
        service.verify_launch(job("m2", ctx), ctx)
        assert (service.collateral.stats["origin.fetches"]
                == pcs.request_log.clean)

    def test_origin_failure_serves_stale_tier(self):
        # the PCS itself gives no grace (its cache rejects once past
        # TTL), while the service tiers accept a long stale window:
        # with the circuit open, the origin fails hard and the tiers'
        # stale copies are the explicit last resort
        strict = FreshnessPolicy(ttl_ns=1_000.0, max_stale_ns=0.0)
        lenient = FreshnessPolicy(ttl_ns=1_000.0, max_stale_ns=1e12)
        breaker = CircuitBreaker("pcs", failure_threshold=1,
                                 cooldown_ns=NEVER_COOLS_NS)
        infra = SimRng(11, "svc-infra")
        pcs = IntelPcs(infra, breaker=breaker, freshness=strict)
        collateral = TieredCollateral(pcs, freshness=lenient)
        service = VerifierService(
            "tdx-test", TdxVerifier(pcs, collateral=collateral),
            collateral=collateral, sessions=SessionCache(ttl_ns=1.0))
        qe = QuotingEnclave(pcs, infra)
        module = TdxModule()

        def job(measurement, ctx, wave=0):
            nonce = ctx.rng.child(f"nonce/{wave}/{measurement}").bytes(16)
            return VerificationJob(
                measurement=measurement, nonce=nonce,
                build_evidence=lambda c, n=nonce, m=measurement:
                    generate_tdx_quote(module, qe, pcs, c, n,
                                       td_identity=m))

        ctx = make_ctx(3)
        service.verify_launch(job("m1", ctx), ctx)
        # age every cached copy past its TTL, then kill the origin
        ctx.charge_network(2_000.0)
        with pytest.raises(CollateralTimeoutError):
            pcs.fetch_tcb_info(make_ctx(
                4, faults=FaultContext(ALWAYS_TIMEOUT, "kill")))
        verdict = service.verify_launch(job("m1", ctx, wave=1), ctx)
        assert verdict.tier == "stale"
        # only the TTL documents (TCB info, QE identity) aged out; the
        # CRLs carry a 7-day next_update and are still served fresh
        assert service.collateral.stats["stale.served"] == 2

    def test_purge_forces_origin_refetch(self):
        service, pcs, job = make_tdx_service(seed=12)
        ctx = make_ctx(5)
        service.verify_launch(job("m1", ctx), ctx)
        service.rotate_collateral()
        verdict = service.verify_launch(job("m1", ctx, wave=1), ctx)
        assert not verdict.resumed          # session ended by rotation
        assert verdict.tier == "origin"     # tiers purged
        assert service.stats["rotations"] == 1


class TestSessionCache:
    def test_store_then_resume(self):
        cache = SessionCache(ttl_ns=1_000.0)
        cache.store("m", "svn-1", crl_expiry_ns=5_000.0, now_ns=0.0)
        session = cache.lookup("m", "svn-1", now_ns=500.0)
        assert session is not None and session.resumed == 1
        assert cache.stats["resumed"] == 1

    def test_tcb_rotation_invalidates(self):
        cache = SessionCache(ttl_ns=1e18)
        cache.store("m", "svn-1", crl_expiry_ns=math.inf, now_ns=0.0)
        assert cache.lookup("m", "svn-2", now_ns=1.0) is None
        assert cache.stats["invalidated.tcb"] == 1
        # the invalid session is gone, not retried
        assert cache.lookup("m", "svn-1", now_ns=1.0) is None

    def test_crl_expiry_is_strict_less_than(self):
        cache = SessionCache(ttl_ns=1e18)
        cache.store("a", None, crl_expiry_ns=1_000.0, now_ns=0.0)
        cache.store("b", None, crl_expiry_ns=1_000.0, now_ns=0.0)
        assert cache.lookup("a", None, now_ns=999.0) is not None
        # now == next_update: stale, same boundary the CRL itself uses
        assert cache.lookup("b", None, now_ns=1_000.0) is None
        assert cache.stats["invalidated.crl"] == 1

    def test_ttl_expiry(self):
        cache = SessionCache(ttl_ns=1_000.0)
        cache.store("m", None, crl_expiry_ns=math.inf, now_ns=0.0)
        assert cache.lookup("m", None, now_ns=1_000.0) is None
        assert cache.stats["invalidated.expired"] == 1

    def test_capacity_bound_evicts_oldest(self):
        cache = SessionCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.store(name, None, crl_expiry_ns=math.inf, now_ns=0.0)
        assert len(cache) == 2
        assert cache.stats["evicted"] == 1
        assert cache.lookup("a", None, now_ns=1.0) is None
        assert cache.lookup("c", None, now_ns=1.0) is not None

    def test_invalid_params_rejected(self):
        with pytest.raises(AttestationError):
            SessionCache(ttl_ns=0.0)
        with pytest.raises(AttestationError):
            SessionCache(capacity=0)


class TestVerifierService:
    def test_session_resumption_skips_verification(self):
        service, _, job = make_tdx_service(seed=20)
        ctx = make_ctx(6)
        first = service.verify_launch(job("m", ctx), ctx)
        second = service.verify_launch(job("m", ctx, wave=1), ctx)
        assert not first.resumed and second.resumed
        assert second.tier == "session"
        assert second.verify_ns < first.verify_ns / 100
        assert service.stats == {"launches": 2, "verified": 1,
                                 "resumed": 1, "rotations": 0}

    def test_crl_rotation_invalidates_sessions(self):
        service, _, job = make_tdx_service(seed=21)
        ctx = make_ctx(7)
        service.verify_launch(job("m", ctx), ctx)
        # advance past the pinned CRL next_update (~7 virtual days)
        ctx.charge_network(8 * 24 * 3600 * 1e9)
        verdict = service.verify_launch(job("m", ctx, wave=1), ctx)
        assert not verdict.resumed
        assert service.sessions.stats["invalidated.crl"] == 1

    def test_tcb_recovery_invalidates_sessions(self):
        from repro.errors import QuoteVerificationError

        service, pcs, job = make_tdx_service(seed=22)
        ctx = make_ctx(8)
        service.verify_launch(job("m", ctx), ctx)
        # the platform recovers to a newer TCB level; collateral tiers
        # are flushed but sessions deliberately left alone — the next
        # launch must catch the mismatch by itself: the session does
        # NOT resume, and the full re-verification rejects the quote
        # minted under the old TCB
        pcs.tcb_svn = "TDX_9.9.99.99.999"
        service.collateral.purge()
        with pytest.raises(QuoteVerificationError, match="TCB"):
            service.verify_launch(job("m", ctx, wave=1), ctx)
        assert service.sessions.stats["invalidated.tcb"] == 1

    def test_batch_queue_waits_and_backlog(self):
        service, _, job = make_tdx_service(seed=23, concurrency=1)
        ctx = make_ctx(9)
        jobs = [job(f"m{i}", ctx, arrival=float(i)) for i in range(3)]
        verdicts = service.process_batch(jobs, ctx)
        assert verdicts[0].queue_wait_ns == 0.0
        # one slot: each later job waits for its predecessor
        assert verdicts[1].queue_wait_ns > 0
        assert verdicts[2].queue_wait_ns > verdicts[1].queue_wait_ns
        assert service.queue_depth_peak >= 1

    def test_batch_requires_sorted_arrivals(self):
        service, _, job = make_tdx_service(seed=24)
        ctx = make_ctx(10)
        jobs = [job("a", ctx, arrival=5.0), job("b", ctx, arrival=1.0)]
        with pytest.raises(AttestationError, match="sorted"):
            service.process_batch(jobs, ctx)

    def test_batches_are_deterministic(self):
        outputs = []
        for _ in range(2):
            service, _, job = make_tdx_service(seed=25)
            ctx = make_ctx(11)
            jobs = [job(f"m{i}", ctx, arrival=float(i)) for i in range(3)]
            outputs.append([
                (v.measurement, v.tier, v.queue_wait_ns, v.verify_ns)
                for v in service.process_batch(jobs, ctx)])
        assert outputs[0] == outputs[1]

    def test_concurrency_validated(self):
        with pytest.raises(AttestationError):
            VerifierService("x", verifier=None, concurrency=0)

    def test_snp_service_is_local(self):
        infra = SimRng(30, "snp-infra")
        keys = AmdKeyInfrastructure(infra)
        from repro.tee.sevsnp import AmdSecureProcessor

        amd_sp = AmdSecureProcessor()
        service = VerifierService("snp-test", SnpVerifier(keys))
        ctx = make_ctx(12)
        nonce = ctx.rng.child("nonce").bytes(16)
        job = VerificationJob(
            measurement="m", nonce=nonce,
            build_evidence=lambda c: generate_snp_report(
                amd_sp, keys, c, nonce, guest_identity="m"))
        first = service.verify_launch(job, ctx)
        assert first.tier == "local" and first.accepted
        second = service.verify_launch(job, ctx)
        assert second.resumed and second.tier == "session"


class TestLaunchAttestor:
    def test_unsupported_platform_rejected(self):
        with pytest.raises(AttestationError, match="cca|supported"):
            LaunchAttestor("cca")

    def test_admission_then_resumption(self):
        attestor = LaunchAttestor("tdx", seed=3)
        cold = attestor.admit("vm-0")
        warm = attestor.admit("vm-0")
        other = attestor.admit("vm-1")
        assert not cold.verdict.resumed and cold.verdict.tier == "origin"
        assert warm.verdict.resumed
        assert warm.latency_ns < cold.latency_ns / 100
        assert not other.verdict.resumed and other.verdict.tier == "host"

    def test_admissions_are_deterministic(self):
        runs = []
        for _ in range(2):
            attestor = LaunchAttestor("sev-snp", seed=5)
            runs.append([attestor.admit(f"vm-{i}").latency_ns
                         for i in range(2)])
        assert runs[0] == runs[1]
