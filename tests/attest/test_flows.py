"""End-to-end tests of the TDX and SNP attestation flows."""

import dataclasses

import pytest

from repro.attest import (
    AmdKeyInfrastructure,
    IntelPcs,
    QuotingEnclave,
    SnpVerifier,
    TdxVerifier,
    generate_snp_report,
    generate_tdx_quote,
)
from repro.errors import AttestationError, QuoteVerificationError
from repro.guestos.context import ExecContext
from repro.hw.machine import epyc_9124, xeon_gold_5515
from repro.sim.ledger import CostCategory
from repro.sim.rng import SimRng
from repro.tee.sevsnp import AmdSecureProcessor
from repro.tee.tdx import OLD_FIRMWARE, TdxModule


@pytest.fixture(scope="module")
def tdx_world():
    rng = SimRng(42, "tdx-flow")
    pcs = IntelPcs(rng)
    qe = QuotingEnclave(pcs, rng)
    module = TdxModule()
    return pcs, qe, module


@pytest.fixture(scope="module")
def snp_world():
    rng = SimRng(42, "snp-flow")
    keys = AmdKeyInfrastructure(rng)
    amd_sp = AmdSecureProcessor()
    return keys, amd_sp


def tdx_ctx(seed=1):
    return ExecContext(machine=xeon_gold_5515(), rng=SimRng(seed, "tdx-ctx"))


def snp_ctx(seed=1):
    return ExecContext(machine=epyc_9124(), rng=SimRng(seed, "snp-ctx"))


class TestTdxFlow:
    def test_quote_verifies(self, tdx_world):
        pcs, qe, module = tdx_world
        ctx = tdx_ctx()
        quote = generate_tdx_quote(module, qe, pcs, ctx, b"nonce-1")
        result = TdxVerifier(pcs).verify(quote, tdx_ctx(2),
                                         expected_report_data=b"nonce-1")
        assert result.accepted
        assert "chain_verified" in result.steps

    def test_wrong_nonce_rejected(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"nonce-a")
        with pytest.raises(QuoteVerificationError, match="report_data"):
            TdxVerifier(pcs).verify(quote, tdx_ctx(2),
                                    expected_report_data=b"nonce-b")

    def test_tampered_signature_rejected(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        bad = dataclasses.replace(quote, signature=bytes(len(quote.signature)))
        with pytest.raises(QuoteVerificationError, match="signature"):
            TdxVerifier(pcs).verify(bad, tdx_ctx(2))

    def test_tampered_measurement_rejected(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        bad = dataclasses.replace(quote, mrtd_hex="00" * 48)
        with pytest.raises(QuoteVerificationError, match="signature"):
            TdxVerifier(pcs).verify(bad, tdx_ctx(2))

    def test_outdated_firmware_rejected(self, tdx_world):
        """TCB check: quotes from old firmware fail verification."""
        pcs, qe, _ = tdx_world
        old_module = TdxModule(OLD_FIRMWARE)
        quote = generate_tdx_quote(old_module, qe, pcs, tdx_ctx(), b"n")
        with pytest.raises(QuoteVerificationError, match="TCB"):
            TdxVerifier(pcs).verify(quote, tdx_ctx(2))

    def test_truncated_chain_rejected(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        bad = dataclasses.replace(quote, cert_chain=quote.cert_chain[:2])
        with pytest.raises(QuoteVerificationError, match="chain"):
            TdxVerifier(pcs).verify(bad, tdx_ctx(2))

    def test_verification_makes_four_pcs_requests(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        before = len(pcs.request_log)
        TdxVerifier(pcs).verify(quote, tdx_ctx(2))
        assert len(pcs.request_log) - before == 4

    def test_verification_charges_network_time(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        ctx = tdx_ctx(2)
        TdxVerifier(pcs).verify(quote, ctx)
        network = ctx.ledger.get(CostCategory.NETWORK)
        crypto = ctx.ledger.get(CostCategory.CRYPTO)
        assert network > 0
        assert network > crypto  # the PCS round-trips dominate the check

    def test_quote_generation_dominated_by_crypto(self, tdx_world):
        pcs, qe, module = tdx_world
        ctx = tdx_ctx()
        generate_tdx_quote(module, qe, pcs, ctx, b"n")
        assert ctx.ledger.dominant() is CostCategory.CRYPTO
        assert ctx.ledger.get(CostCategory.NETWORK) == 0.0


class TestSnpFlow:
    def test_report_verifies(self, snp_world):
        keys, amd_sp = snp_world
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"nonce-1")
        result = SnpVerifier(keys).verify(report, snp_ctx(2),
                                          expected_report_data=b"nonce-1")
        assert result.accepted
        assert result.steps[:2] == ["device_certs_fetched", "chain_verified"]

    def test_wrong_nonce_rejected(self, snp_world):
        keys, amd_sp = snp_world
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"a")
        with pytest.raises(QuoteVerificationError, match="report_data"):
            SnpVerifier(keys).verify(report, snp_ctx(2),
                                     expected_report_data=b"b")

    def test_tampered_report_rejected(self, snp_world):
        keys, amd_sp = snp_world
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"n")
        bad = dataclasses.replace(report, measurement_hex="00" * 48)
        with pytest.raises(QuoteVerificationError, match="signature"):
            SnpVerifier(keys).verify(bad, snp_ctx(2))

    def test_wrong_chip_rejected(self, snp_world):
        keys, amd_sp = snp_world
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"n")
        bad = dataclasses.replace(report, chip_id="some-other-chip")
        with pytest.raises(QuoteVerificationError, match="chip"):
            SnpVerifier(keys).verify(bad, snp_ctx(2))

    def test_mismatched_key_infrastructure_rejected(self, snp_world):
        _, amd_sp = snp_world
        foreign = AmdKeyInfrastructure(SimRng(7, "foreign"), chip_id="other-chip")
        with pytest.raises(AttestationError, match="chip"):
            generate_snp_report(amd_sp, foreign, snp_ctx(), b"n")

    def test_verification_uses_no_network(self, snp_world):
        keys, amd_sp = snp_world
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"n")
        ctx = snp_ctx(2)
        SnpVerifier(keys).verify(report, ctx)
        assert ctx.ledger.get(CostCategory.NETWORK) == 0.0


class TestFig5Shape:
    """The latency asymmetries Fig. 5 reports."""

    def test_snp_attest_faster_than_tdx_attest(self, tdx_world, snp_world):
        pcs, qe, module = tdx_world
        keys, amd_sp = snp_world
        tdx_ctx_ = tdx_ctx()
        generate_tdx_quote(module, qe, pcs, tdx_ctx_, b"n")
        snp_ctx_ = snp_ctx()
        generate_snp_report(amd_sp, keys, snp_ctx_, b"n")
        assert snp_ctx_.ledger.total() < tdx_ctx_.ledger.total() / 10

    def test_snp_check_faster_than_tdx_check(self, tdx_world, snp_world):
        pcs, qe, module = tdx_world
        keys, amd_sp = snp_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"n")
        tdx_result = TdxVerifier(pcs).verify(quote, tdx_ctx(2))
        snp_result = SnpVerifier(keys).verify(report, snp_ctx(2))
        assert snp_result.elapsed_ns < tdx_result.elapsed_ns / 10


class TestVerifierRetries:
    """Transient-fault retries with backoff charged to the ledger."""

    def _timeout_plan(self, seed):
        from repro.sim.faults import FaultContext, FaultPlan

        return FaultContext(
            FaultPlan.parse(f"pcs-timeout=0.25,seed={seed}"), "req")

    def test_pcs_timeout_retry_charges_network(self, tdx_world):
        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")

        clean = tdx_ctx(2)
        TdxVerifier(pcs).verify(quote, clean, expected_report_data=b"n")
        clean_network = clean.ledger.breakdown()[CostCategory.NETWORK]

        recovered = 0
        for seed in range(30):
            ctx = tdx_ctx(2)
            ctx.faults = self._timeout_plan(seed)
            mark = len(pcs.request_log)
            try:
                result = TdxVerifier(pcs).verify(
                    quote, ctx, expected_report_data=b"n")
            except AttestationError:
                continue
            timeouts = sum(1 for entry in pcs.request_log[mark:]
                           if entry.endswith("!timeout"))
            if not timeouts:
                continue
            recovered += 1
            assert result.accepted
            # timed-out fetches + exponential backoff both cost
            # network time, so the ledger must exceed the clean run
            network = ctx.ledger.breakdown()[CostCategory.NETWORK]
            assert network > clean_network
            # ctx.faults is restored after the verifier's scoped swaps
            assert ctx.faults.scope == "req"
        assert recovered > 0, "no seed recovered after a timeout"

    def test_certain_timeouts_exhaust_retries(self, tdx_world):
        from repro.errors import CollateralTimeoutError
        from repro.sim.faults import FaultContext, FaultPlan

        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")
        ctx = tdx_ctx(2)
        ctx.faults = FaultContext(FaultPlan.parse("pcs-timeout=1"), "req")
        with pytest.raises(CollateralTimeoutError):
            TdxVerifier(pcs).verify(quote, ctx, expected_report_data=b"n")

    def test_transient_retry_is_deterministic(self, tdx_world):
        from repro.sim.faults import FaultContext, FaultPlan

        pcs, qe, module = tdx_world
        quote = generate_tdx_quote(module, qe, pcs, tdx_ctx(), b"n")

        def run():
            # note: network charges draw from the PCS's own stateful
            # rng, so only the fault decisions and outcome are compared
            ctx = tdx_ctx(2)
            faults = FaultContext(
                FaultPlan.parse("attest-transient=0.4,seed=5"), "req")
            ctx.faults = faults
            try:
                TdxVerifier(pcs).verify(quote, ctx,
                                        expected_report_data=b"n")
                outcome = "accepted"
            except AttestationError:
                outcome = "exhausted"
            return outcome, tuple(faults.injected)

        first = run()
        assert first == run()
        assert first[0] in ("accepted", "exhausted")

    def test_snp_transient_retry_charges_crypto(self, snp_world):
        from repro.sim.faults import FaultContext, FaultPlan

        keys, amd_sp = snp_world
        report = generate_snp_report(amd_sp, keys, snp_ctx(), b"n")

        clean = snp_ctx(2)
        SnpVerifier(keys).verify(report, clean, expected_report_data=b"n")
        clean_crypto = clean.ledger.breakdown()[CostCategory.CRYPTO]

        recovered = 0
        for seed in range(40):
            ctx = snp_ctx(2)
            faults = FaultContext(
                FaultPlan.parse(f"attest-transient=0.3,seed={seed}"), "req")
            ctx.faults = faults
            try:
                result = SnpVerifier(keys).verify(
                    report, ctx, expected_report_data=b"n")
            except AttestationError:
                continue
            if not faults.injected:
                continue
            recovered += 1
            assert result.accepted
            crypto = ctx.ledger.breakdown()[CostCategory.CRYPTO]
            assert crypto > clean_crypto
        assert recovered > 0, "no seed recovered after a transient"
