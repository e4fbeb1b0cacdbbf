"""Freshness policy, bounded request log, and CRL boundary semantics.

The stale-collateral bug class: a breaker-open PCS used to serve
cached documents forever.  Now every cached serve is classified —
fresh (``!cached``), stale-but-acceptable (``!stale``), or reject
(evicted, ``!open``) — and both the log and the cache are bounded.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        """now == next_update is stale for both is_stale and classify —
        no consumer can disagree."""
        ca = CertificateAuthority("CA", SimRng(2, "ca"))
        crl = ca.crl(now_ns=0.0, validity_ns=1_000.0)
        assert not crl.is_stale(999.999)
        assert crl.is_stale(1_000.0)
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


@settings(max_examples=80, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8),
       entries=st.lists(st.sampled_from(["/tcb", "/qe", "/tcb!stale",
                                         "/crl!open"]), max_size=40))
def test_request_log_matches_list_model(capacity, entries):
    """Property: past capacity, the log is the model list's tail, and
    ``dropped``/``clean`` count every append, evicted or not."""
    log, model = RequestLog(capacity=capacity), []
    for entry in entries:
        log.append(entry)
        model.append(entry)
        window = model[-capacity:]
        assert log == window and list(log) == window
        assert len(log) == len(window)
        assert log[-1] == window[-1] and log[0] == window[0]
        assert log[1:] == window[1:] and log[-4:] == window[-4:]
    assert log.dropped == max(0, len(model) - capacity)
    assert log.clean == sum("!" not in entry for entry in model)
    assert repr(log) == (f"RequestLog({model[-capacity:]!r}, "
                         f"capacity={capacity}, dropped={log.dropped})")


class TestSignedBytesEncodedOnce:
    """TCB info, QE identity and CRLs keep their encoded signed bytes,
    like certificates; every verification over them still runs, and a
    changed copy is encoded afresh, so it no longer verifies."""

    @pytest.fixture(scope="class")
    def documents(self):
        pcs = IntelPcs(SimRng(21, "encode-once"))
        ctx = make_ctx()
        return pcs, ctx, [pcs.fetch_tcb_info(ctx), pcs.fetch_qe_identity(ctx),
                          pcs.fetch_root_crl(ctx)]

    def test_bytes_encoded_once_per_document(self, documents):
        _, _, docs = documents
        for doc in docs:
            encode = getattr(doc, "payload", None) or doc.tbs_bytes
            assert encode() is encode()

    def test_changed_copies_fail_verification(self, documents):
        pcs, _, (tcb, identity, crl) = documents
        assert pcs.verify_tcb_signature(tcb)
        assert pcs.verify_qe_identity_signature(identity)
        root_key = pcs.root_ca.certificate.public_key
        assert root_key.verify(crl.tbs_bytes(), crl.signature)
        assert not pcs.verify_tcb_signature(
            dataclasses.replace(tcb, status="Revoked"))
        assert not pcs.verify_qe_identity_signature(
            dataclasses.replace(identity, isv_svn=identity.isv_svn + 1))
        assert not root_key.verify(
            dataclasses.replace(crl, revoked_serials=frozenset({1})
                                ).tbs_bytes(), crl.signature)
