"""Freshness policy, bounded request log, and CRL boundary semantics.

The stale-collateral bug class: a breaker-open PCS used to serve
cached documents forever.  Now every cached serve is classified —
fresh (``!cached``), stale-but-acceptable (``!stale``), or reject
(evicted, ``!open``) — and both the log and the cache are bounded.
"""

import pytest

from repro.attest import IntelPcs
from repro.attest.certs import CertificateAuthority
from repro.attest.pcs import (
    DEFAULT_FRESHNESS,
    FreshnessPolicy,
    RequestLog,
    Staleness,
    TcbInfo,
)
from repro.errors import AttestationError, CollateralTimeoutError
from repro.guestos.context import ExecContext
from repro.hw.machine import xeon_gold_5515
from repro.sim.faults import BreakerState, CircuitBreaker, FaultContext, FaultPlan
from repro.sim.rng import SimRng

ALWAYS_TIMEOUT = FaultPlan.parse("pcs-timeout=1.0,seed=1")
NEVER_COOLS_NS = 1e18
TCB_ENDPOINT = "/sgx/certification/v4/tcb"

#: a tight policy so tests age documents with small clock advances
TIGHT = FreshnessPolicy(ttl_ns=1_000.0, max_stale_ns=500.0)


def make_ctx(seed=1, faults=None):
    return ExecContext(machine=xeon_gold_5515(),
                       rng=SimRng(seed, "freshness-ctx"), faults=faults)


def faulted_ctx(seed=2):
    return make_ctx(seed, faults=FaultContext(ALWAYS_TIMEOUT, "test"))


def some_tcb() -> TcbInfo:
    return TcbInfo(fmspc="x", tcb_svn="y", status="UpToDate", signature=b"")


class TestFreshnessPolicy:
    def test_ttl_document_verdict_progression(self):
        doc = some_tcb()
        assert TIGHT.classify(doc, 0.0, 999.0) is Staleness.FRESH
        assert TIGHT.classify(doc, 0.0, 1_000.0) is Staleness.STALE_ACCEPTABLE
        assert TIGHT.classify(doc, 0.0, 1_499.0) is Staleness.STALE_ACCEPTABLE
        assert TIGHT.classify(doc, 0.0, 1_500.0) is Staleness.REJECT

    def test_clock_regression_clamps_age_to_zero(self):
        # a fresh trial context restarting near zero must not make an
        # old store time look like negative (or huge) age
        doc = some_tcb()
        assert TIGHT.classify(doc, 5_000.0, 10.0) is Staleness.FRESH

    def test_crl_verdict_uses_signed_next_update(self):
        ca = CertificateAuthority("CA", SimRng(1, "ca"))
        crl = ca.crl(now_ns=0.0, validity_ns=1_000.0)
        # stored_at is irrelevant for CRLs: the document carries its
        # own expiry
        assert TIGHT.classify(crl, 999_999.0, 999.0) is Staleness.FRESH
        assert TIGHT.classify(crl, 0.0, 1_000.0) is Staleness.STALE_ACCEPTABLE
        assert TIGHT.classify(crl, 0.0, 1_500.0) is Staleness.REJECT

    def test_crl_boundary_is_strict_less_than_everywhere(self):
        """now == next_update is stale for is_stale, classify, and the
        remaining-freshness helper — no consumer can disagree."""
        ca = CertificateAuthority("CA", SimRng(2, "ca"))
        crl = ca.crl(now_ns=0.0, validity_ns=1_000.0)
        assert not crl.is_stale(999.999)
        assert crl.is_stale(1_000.0)
        assert crl.freshness_remaining_ns(1_000.0) == 0.0
        assert crl.freshness_remaining_ns(999.0) == 1.0
        assert DEFAULT_FRESHNESS.classify(crl, 0.0, 1_000.0) \
            is not Staleness.FRESH

    def test_invalid_policy_rejected(self):
        with pytest.raises(AttestationError):
            FreshnessPolicy(ttl_ns=0.0)
        with pytest.raises(AttestationError):
            FreshnessPolicy(max_stale_ns=-1.0)


class TestOpenCircuitFreshness:
    def _tripped_pcs(self, seed=50, **kwargs):
        breaker = CircuitBreaker("pcs", failure_threshold=1,
                                 cooldown_ns=NEVER_COOLS_NS)
        return IntelPcs(SimRng(seed, "pcs"), breaker=breaker,
                        freshness=TIGHT, **kwargs)

    def test_stale_but_acceptable_is_served_marked(self):
        pcs = self._tripped_pcs()
        ctx = make_ctx(1)
        warm = pcs.fetch_tcb_info(ctx)
        with pytest.raises(CollateralTimeoutError):
            pcs.fetch_tcb_info(faulted_ctx())
        assert pcs.breaker.state is BreakerState.OPEN
        # age the document past its TTL but inside the grace window
        ctx.charge_network(1_200.0)
        served = pcs.fetch_tcb_info(ctx)
        assert served == warm
        assert pcs.request_log[-1].endswith("!stale")

    def test_rejected_document_is_evicted_and_fetch_fails(self):
        pcs = self._tripped_pcs(seed=51)
        ctx = make_ctx(1)
        pcs.fetch_tcb_info(ctx)
        with pytest.raises(CollateralTimeoutError):
            pcs.fetch_tcb_info(faulted_ctx())
        # age far past the grace window: the cached copy must not
        # keep attesting — it is dropped and the fetch fails
        ctx.charge_network(10_000.0)
        with pytest.raises(CollateralTimeoutError, match="no acceptable"):
            pcs.fetch_tcb_info(ctx)
        assert pcs.request_log[-1].endswith("!open")
        assert TCB_ENDPOINT not in pcs.collateral_cache
        assert TCB_ENDPOINT not in pcs.collateral_fetched_at

    def test_fresh_document_still_served_as_cached(self):
        pcs = self._tripped_pcs(seed=52)
        ctx = make_ctx(1)
        warm = pcs.fetch_tcb_info(ctx)
        with pytest.raises(CollateralTimeoutError):
            pcs.fetch_tcb_info(faulted_ctx())
        served = pcs.fetch_tcb_info(ctx)
        assert served == warm
        assert pcs.request_log[-1].endswith("!cached")


class TestEvictExpired:
    def test_sweep_drops_only_rejected_entries(self):
        pcs = IntelPcs(SimRng(60, "pcs"), freshness=TIGHT)
        ctx = make_ctx(1)
        pcs.fetch_tcb_info(ctx)
        first_at = pcs.collateral_fetched_at[TCB_ENDPOINT]
        ctx.charge_network(1_200.0)          # first doc: stale, not rejected
        pcs.fetch_qe_identity(ctx)
        assert pcs.evict_expired(first_at + 1_200.0) == 0
        assert pcs.evict_expired(first_at + 10_000.0) == 1
        assert TCB_ENDPOINT not in pcs.collateral_cache
        # the younger QE identity survives the sweep
        assert "/sgx/certification/v4/qe/identity" in pcs.collateral_cache


class TestRequestLog:
    def test_ring_buffer_caps_and_counts_drops(self):
        log = RequestLog(capacity=3)
        for entry in ("a", "b", "c", "d", "e"):
            log.append(entry)
        assert len(log) == 3
        assert list(log) == ["c", "d", "e"]
        assert log.dropped == 2
        assert log == ["c", "d", "e"]
        assert log[-1] == "e"
        assert log[-2:] == ["d", "e"]

    def test_equality_across_instances(self):
        a, b = RequestLog(), RequestLog()
        a.append("x")
        b.append("x")
        assert a == b
        b.append("y")
        assert a != b

    def test_invalid_capacity_rejected(self):
        with pytest.raises(AttestationError):
            RequestLog(capacity=0)

    def test_pcs_log_is_bounded(self):
        pcs = IntelPcs(SimRng(61, "pcs"), log_capacity=4)
        ctx = make_ctx(1)
        for _ in range(3):
            pcs.fetch_tcb_info(ctx)
            pcs.fetch_qe_identity(ctx)
        assert len(pcs.request_log) == 4
        assert pcs.request_log.dropped == 2

    def test_clean_total_counts_evicted_entries(self):
        log = RequestLog(capacity=2)
        for entry in ("/tcb", "/qe!timeout", "/tcb", "/crl!stale", "/qe"):
            log.append(entry)
        assert list(log) == ["/crl!stale", "/qe"]
        assert log.dropped == 3
        assert log.clean == 3
