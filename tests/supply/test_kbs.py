"""The Key Broker Service: attestation-gated key release.

The satellite acceptance paths: denial on failed and on stale
attestation, grant on session resumption *without* an origin
round-trip, and the strict clock-skew boundary — at exactly
``next_update`` the CRL, the freshness policy, the session cache, and
the KBS all agree the collateral is stale.
"""

import math

import pytest

from repro.attest import (
    IntelPcs,
    LaunchAttestor,
    QuotingEnclave,
    SessionCache,
    TdxVerifier,
    TieredCollateral,
    VerificationJob,
    VerifierService,
)
from repro.attest.pcs import FreshnessPolicy
from repro.errors import KeyReleaseDeniedError, SupplyChainError
from repro.guestos.context import ExecContext
from repro.hw.machine import xeon_gold_5515
from repro.sim.faults import CircuitBreaker, FaultContext, FaultPlan
from repro.sim.rng import SimRng
from repro.supply import KeyBrokerService, build_image
from repro.tee.tdx import TdxModule

ALWAYS_TIMEOUT = FaultPlan.parse("pcs-timeout=1.0,seed=1")


def make_ctx(seed=1, faults=None):
    return ExecContext(machine=xeon_gold_5515(),
                       rng=SimRng(seed, "kbs-ctx"), faults=faults)


def make_broker(seed=21):
    """A TDX attestor + KBS escrowing one encrypted image's keys."""
    attestor = LaunchAttestor("tdx", seed=seed)
    kbs = KeyBrokerService(attestor.service)
    bundle = build_image("app", "v1", SimRng(seed, "kbs-image"))
    kbs.register_bundle(bundle)
    return attestor, kbs, bundle


class TestRelease:
    def test_fresh_launch_releases_all_keys(self):
        attestor, kbs, bundle = make_broker()
        ctx = attestor.admission_context("vm-1")
        job = attestor.make_job("vm-1", ctx)
        release = kbs.release(job, bundle.manifest.key_ids, ctx)
        assert release.keys == bundle.keys
        assert not release.resumed
        assert release.release_ns > 0.0
        assert kbs.stats["released"] == 1
        assert kbs.clean_log_entries() == 1

    def test_clean_total_reconciles_past_log_capacity(self):
        attestor = LaunchAttestor("tdx", seed=21)
        kbs = KeyBrokerService(attestor.service, log_capacity=2)
        bundle = build_image("app", "v1", SimRng(21, "kbs-image"))
        kbs.register_bundle(bundle)
        for vm_id in ("vm-1", "vm-2", "vm-3"):
            ctx = attestor.admission_context(vm_id)
            kbs.release(attestor.make_job(vm_id, ctx),
                        bundle.manifest.key_ids, ctx)
        assert len(kbs.request_log) == 2
        assert kbs.clean_log_entries() == kbs.stats["released"] == 3

    def test_resumption_grants_without_origin_hit(self):
        attestor, kbs, bundle = make_broker()
        ctx = attestor.admission_context("vm-1")
        kbs.release(attestor.make_job("vm-1", ctx),
                    bundle.manifest.key_ids, ctx)
        origin_before = attestor.collateral.stats["origin.fetches"]
        pcs_log_before = len(attestor.pcs.request_log)

        ctx2 = attestor.admission_context("vm-1")
        release = kbs.release(attestor.make_job("vm-1", ctx2),
                              bundle.manifest.key_ids, ctx2)
        assert release.resumed
        assert release.verdict.tier == "session"
        assert release.keys == bundle.keys
        # the resumed path never leaves the verifier: no collateral
        # origin fetch, not even a PCS log entry
        assert attestor.collateral.stats["origin.fetches"] == origin_before
        assert len(attestor.pcs.request_log) == pcs_log_before
        # and it is cheaper end to end than the fresh launch
        assert ctx2.ledger.total() < ctx.ledger.total()
        assert kbs.stats["resumed"] == 1

    def test_denies_failed_attestation(self):
        attestor, kbs, bundle = make_broker()
        ctx = attestor.admission_context("vm-1")
        job = attestor.make_job("vm-1", ctx)
        # break the nonce binding: evidence no longer matches the job
        job.nonce = ctx.rng.child("tampered").bytes(16)
        with pytest.raises(KeyReleaseDeniedError) as excinfo:
            kbs.release(job, bundle.manifest.key_ids, ctx)
        assert excinfo.value.reason == "attestation"
        assert kbs.stats["denied.attestation"] == 1
        assert kbs.stats["released"] == 0
        # the denial is in the log as an error entry, not a release
        assert kbs.clean_log_entries() == 0
        assert len(kbs.request_log) == 1

    def test_denies_unknown_key(self):
        attestor, kbs, _bundle = make_broker()
        ctx = attestor.admission_context("vm-1")
        with pytest.raises(KeyReleaseDeniedError) as excinfo:
            kbs.release(attestor.make_job("vm-1", ctx), ("ghost-key",),
                        ctx)
        assert excinfo.value.reason == "unknown_key"
        assert kbs.stats["denied.unknown_key"] == 1

    def test_rejects_empty_key_registration(self):
        _attestor, kbs, _bundle = make_broker()
        with pytest.raises(SupplyChainError):
            kbs.register_key("id", b"")


class TestStaleCollateral:
    def _stale_service(self, seed=31):
        """A TDX service whose collateral has gone stale-but-served.

        The PCS breaker is tripped after the first verification, so
        re-verifications serve the cached CRLs even once the clock
        passes their ``next_update`` — verification still succeeds
        (availability), but the KBS must refuse keys on it.
        """
        strict = FreshnessPolicy(ttl_ns=1e18, max_stale_ns=1e18)
        lenient = FreshnessPolicy(ttl_ns=1e18, max_stale_ns=1e18)
        breaker = CircuitBreaker("pcs", failure_threshold=1,
                                 cooldown_ns=1e18)
        infra = SimRng(seed, "stale-infra")
        pcs = IntelPcs(infra, breaker=breaker, freshness=strict)
        collateral = TieredCollateral(pcs, freshness=lenient)
        service = VerifierService(
            "tdx-test", TdxVerifier(pcs, collateral=collateral),
            collateral=collateral, sessions=SessionCache(ttl_ns=1e18))
        qe = QuotingEnclave(pcs, infra)
        module = TdxModule()

        def job(measurement, ctx, wave=0):
            nonce = ctx.rng.child(f"nonce/{wave}/{measurement}").bytes(16)
            from repro.attest import generate_tdx_quote

            return VerificationJob(
                measurement=measurement, nonce=nonce,
                build_evidence=lambda c, n=nonce, m=measurement:
                    generate_tdx_quote(module, qe, pcs, c, n,
                                       td_identity=m))

        return service, pcs, job

    def test_denies_release_on_stale_collateral(self):
        service, pcs, job = self._stale_service()
        kbs = KeyBrokerService(service)
        kbs.register_key("k", b"\x01" * 32)

        ctx = make_ctx(3)
        service.verify_launch(job("m1", ctx), ctx)
        # trip the breaker so the origin is gone for good
        with pytest.raises(Exception):
            pcs.fetch_tcb_info(make_ctx(
                4, faults=FaultContext(ALWAYS_TIMEOUT, "kill")))
        # advance the clock past every cached CRL's next_update; the
        # session (stored with the old expiry) invalidates, and the
        # re-verification can only serve the stale cached CRLs
        expiry = service.collateral.earliest_crl_expiry_ns()
        assert math.isfinite(expiry)
        ctx.clock.advance(expiry - ctx.clock.now() + 1.0)

        with pytest.raises(KeyReleaseDeniedError) as excinfo:
            kbs.release(job("m1", ctx, wave=1), ("k",), ctx)
        assert excinfo.value.reason == "stale_collateral"
        assert kbs.stats["denied.stale_collateral"] == 1
        assert kbs.stats["released"] == 0


class _FixedCollateral:
    """Duck-typed collateral with a pinned CRL expiry."""

    def __init__(self, expiry_ns):
        self._expiry_ns = expiry_ns

    def earliest_crl_expiry_ns(self):
        return self._expiry_ns


class _AcceptingService:
    """Duck-typed verifier service that accepts every launch."""

    def __init__(self, expiry_ns):
        self.collateral = _FixedCollateral(expiry_ns)

    def verify_launch(self, job, ctx, queue_wait_ns=0.0):
        from repro.attest.service import LaunchVerdict

        return LaunchVerdict(measurement=job.measurement, accepted=True,
                             resumed=False, tier="host",
                             queue_wait_ns=queue_wait_ns, verify_ns=0.0)


class _Job:
    measurement = "m"


class TestBoundaryAgreement:
    """now == next_update is stale for *every* consumer at once."""

    def _release_at(self, now_ns, expiry_ns):
        kbs = KeyBrokerService(_AcceptingService(expiry_ns))
        kbs.register_key("k", b"\x02" * 32)
        ctx = make_ctx(9)
        ctx.clock.advance(now_ns - ctx.clock.now())
        assert ctx.clock.now() == now_ns
        # the KBS charges its own handshake before checking freshness,
        # which would advance the clock past the boundary under test —
        # pin the check by measuring against the pre-charge reading
        before = ctx.clock.now()
        try:
            kbs.release(_Job(), ("k",), ctx)
            return True, before
        except KeyReleaseDeniedError as exc:
            assert exc.reason == "stale_collateral"
            return False, before

    def test_all_consumers_agree_at_exact_next_update(self):
        from repro.attest.certs import CertificateRevocationList
        from repro.attest.pcs import FreshnessPolicy, Staleness

        expiry = 1_000_000.0
        crl = CertificateRevocationList(
            issuer="ca", revoked_serials=frozenset(),
            this_update=0.0, next_update=expiry)
        policy = FreshnessPolicy(ttl_ns=1e18, max_stale_ns=1e18)
        cache = SessionCache(ttl_ns=1e18)
        cache.store("m", None, crl_expiry_ns=expiry, now_ns=0.0)
        cache.store("m2", None, crl_expiry_ns=expiry, now_ns=0.0)

        # strictly before next_update: fresh everywhere
        just_before = expiry - 1.0
        assert not crl.is_stale(just_before)
        assert policy.classify(crl, 0.0, just_before) is Staleness.FRESH
        assert cache.lookup("m", None, now_ns=just_before) is not None

        # at exactly next_update: stale everywhere, including the KBS
        assert crl.is_stale(expiry)
        assert policy.classify(crl, 0.0, expiry) is not Staleness.FRESH
        assert cache.lookup("m2", None, now_ns=expiry) is None

    def test_kbs_boundary_is_strict(self):
        expiry = 50_000_000.0
        released, now = self._release_at(expiry, expiry)
        assert now == expiry and not released
        # the KBS handshake itself advances the clock, so the fresh
        # side of the boundary needs headroom covering that charge
        released, now = self._release_at(1_000.0, expiry)
        assert released
