"""Integration tests: the circuit breaker supervising collateral fetches.

The PCS-attached breaker (TDX) gives per-fetch granularity with a
cached-collateral fallback, exercised here against an always-firing
``pcs-timeout`` fault plan; the verifier-attached breaker (SEV-SNP)
gives per-attempt fail-fast.
"""

import pytest

from repro.attest import (
    AmdKeyInfrastructure,
    IntelPcs,
    SnpVerifier,
    generate_snp_report,
)
from repro.errors import CollateralTimeoutError
from repro.guestos.context import ExecContext
from repro.hw.machine import epyc_9124, xeon_gold_5515
from repro.sim.faults import (
    BreakerState,
    CircuitBreaker,
    FaultContext,
    FaultPlan,
)
from repro.sim.rng import SimRng
from repro.tee.sevsnp import AmdSecureProcessor

ALWAYS_TIMEOUT = FaultPlan.parse("pcs-timeout=1.0,seed=1")

#: a cooldown far beyond any trial's virtual time: once open, stays open
NEVER_COOLS_NS = 1e18


def make_ctx(seed=1, faults=None, machine=None):
    return ExecContext(machine=machine or xeon_gold_5515(),
                       rng=SimRng(seed, "breaker-ctx"), faults=faults)


def faulted_ctx(seed=2):
    return make_ctx(seed, faults=FaultContext(ALWAYS_TIMEOUT, "test"))


class TestPcsBreaker:
    def test_repeated_timeouts_trip_and_serve_cached_collateral(self):
        breaker = CircuitBreaker("pcs", failure_threshold=3,
                                 cooldown_ns=NEVER_COOLS_NS)
        pcs = IntelPcs(SimRng(42, "pcs"), breaker=breaker)
        warm = pcs.fetch_tcb_info(make_ctx(1))   # seeds the cache
        ctx = faulted_ctx()
        for _ in range(3):
            with pytest.raises(CollateralTimeoutError, match="timed out"):
                pcs.fetch_tcb_info(ctx)
        assert breaker.state is BreakerState.OPEN
        before = ctx.ledger.total()
        served = pcs.fetch_tcb_info(ctx)
        # short-circuit: the last good document, zero network charge
        assert served == warm
        assert ctx.ledger.total() == before
        assert pcs.request_log[-1].endswith("!cached")
        assert breaker.shorted == 1

    def test_open_circuit_with_cold_cache_fails_fast(self):
        breaker = CircuitBreaker("pcs", failure_threshold=1,
                                 cooldown_ns=NEVER_COOLS_NS)
        pcs = IntelPcs(SimRng(43, "pcs"), breaker=breaker)
        ctx = faulted_ctx()
        with pytest.raises(CollateralTimeoutError, match="timed out"):
            pcs.fetch_tcb_info(ctx)
        # a *different* endpoint, never fetched successfully: no
        # fallback document exists, so the fetch fails immediately
        before = ctx.ledger.total()
        with pytest.raises(CollateralTimeoutError, match="circuit open"):
            pcs.fetch_qe_identity(ctx)
        assert ctx.ledger.total() == before
        assert pcs.request_log[-1].endswith("!open")

    def test_healthy_breaker_leaves_behaviour_identical(self):
        """With no failures the supervised PCS is byte-for-byte the
        plain one: same documents, same request log, same charges."""
        plain = IntelPcs(SimRng(7, "pcs"))
        supervised = IntelPcs(SimRng(7, "pcs"),
                              breaker=CircuitBreaker("pcs"))
        ctx_a, ctx_b = make_ctx(5), make_ctx(5)
        docs_a = [plain.fetch_tcb_info(ctx_a),
                  plain.fetch_qe_identity(ctx_a)]
        docs_b = [supervised.fetch_tcb_info(ctx_b),
                  supervised.fetch_qe_identity(ctx_b)]
        assert docs_a == docs_b
        assert plain.request_log == supervised.request_log
        assert ctx_a.ledger.total() == ctx_b.ledger.total()
        assert supervised.breaker.state is BreakerState.CLOSED

    def test_probe_success_refreshes_cache_and_recloses(self):
        breaker = CircuitBreaker("pcs", failure_threshold=1,
                                 cooldown_ns=100.0, jitter=0.0)
        pcs = IntelPcs(SimRng(44, "pcs"), breaker=breaker)
        with pytest.raises(CollateralTimeoutError):
            pcs.fetch_tcb_info(faulted_ctx())
        assert breaker.state is BreakerState.OPEN
        # a fresh healthy context restarts virtual time near zero: the
        # breaker re-arms its cooldown from the new timeline (clock
        # regression), so the first call still short-circuits ...
        healthy = make_ctx(6)
        with pytest.raises(CollateralTimeoutError, match="circuit open"):
            pcs.fetch_tcb_info(healthy)
        # ... and once the re-armed cooldown elapses, the half-open
        # probe succeeds, closing the circuit and refreshing the cache
        healthy.charge_network(200.0)   # advance past the cooldown
        doc = pcs.fetch_tcb_info(healthy)
        assert breaker.state is BreakerState.CLOSED
        assert pcs.collateral_cache["/sgx/certification/v4/tcb"] == doc


class TestVerifierBreaker:
    def test_open_circuit_fails_fast_without_retries(self):
        rng = SimRng(42, "snp-flow")
        keys = AmdKeyInfrastructure(rng)
        report = generate_snp_report(AmdSecureProcessor(), keys,
                                     make_ctx(1, machine=epyc_9124()), b"n")
        breaker = CircuitBreaker("verify", failure_threshold=1,
                                 cooldown_ns=NEVER_COOLS_NS)
        breaker.record_failure(0.0)   # pre-tripped
        verifier = SnpVerifier(keys, breaker=breaker)
        ctx = make_ctx(2, machine=epyc_9124())
        before = ctx.ledger.total()
        with pytest.raises(CollateralTimeoutError, match="failing fast"):
            verifier.verify(report, ctx, expected_report_data=b"n")
        # no attempt ran: no device certs fetched, nothing was charged
        assert ctx.ledger.total() == before
        assert breaker.shorted == 1
