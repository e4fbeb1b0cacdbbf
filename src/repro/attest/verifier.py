"""Verifier-side attestation flows (the "check" step of Fig. 5).

Two verifiers with deliberately asymmetric I/O profiles:

- :class:`TdxVerifier` mirrors go-tdx-guest: it must *fetch
  collateral over the network* — TCB info, QE identity and two CRLs
  from the Intel PCS — before walking the PCK chain and checking the
  quote signature.  Four WAN round-trips dominate its latency.
- :class:`SnpVerifier` mirrors snpguest's three-step process: (1)
  obtain the ARK→ASK→VCEK chain from the device, (2) verify the
  chain against the pinned ARK, (3) verify the report signature and
  fields.  Everything is local, so it is fast.

Both verifiers retry *transient* failures (injected transient
verification errors and PCS collateral timeouts) under the one retry
rule of :mod:`repro.sim.faults` (:data:`~repro.sim.faults.MAX_ATTEMPTS`
attempts, :func:`~repro.sim.faults.backoff_ns` between them).  The loop
is their own, not :class:`~repro.sim.faults.Retries`: each backoff is
charged right away to the caller's cost ledger, inside a ``retry``
span, so resilience shows up as latency, exactly as it would against
the real Intel PCS, and an SNP verifier's circuit breaker can fail a
verification fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.attest.certs import Certificate, verify_chain
from repro.attest.crypto import DIGEST_COST_PER_BYTE_NS, VERIFY_COST_NS
from repro.attest.pcs import IntelPcs, require_fresh_status
from repro.attest.snp_report import (
    DEVICE_CERT_FETCH_NS,
    AmdKeyInfrastructure,
    SnpAttestationReport,
)
from repro.attest.tdx_quote import TdxQuote
from repro.errors import (
    CollateralTimeoutError,
    QuoteVerificationError,
    TransientAttestationError,
)
from repro.guestos.context import ExecContext
from repro.sim.faults import (
    MAX_ATTEMPTS,
    CircuitBreaker,
    FaultContext,
    FaultKind,
    backoff_ns,
)


@dataclass
class VerificationResult:
    """Outcome of a verification run."""

    accepted: bool
    platform: str
    steps: list[str] = field(default_factory=list)
    elapsed_ns: float = 0.0

    def record(self, step: str) -> None:
        self.steps.append(step)


def _verify_with_retry(
    verify_once: Callable[[FaultContext | None], VerificationResult],
    ctx: ExecContext,
    backoff_charge: Callable[[float], float],
    breaker: CircuitBreaker | None = None,
) -> VerificationResult:
    """Run ``verify_once`` under the retry rule, charging backoffs.

    Each attempt gets its own scoped :class:`FaultContext` (derived
    from ``ctx.faults`` when present) so a retried collateral fetch
    re-rolls its fault decision instead of deterministically failing
    again.  ``ctx.faults`` is temporarily swapped to the scoped child
    for the attempt's duration so the PCS sees the same stream.

    With a ``breaker``, attempt outcomes feed its state machine, and
    an open circuit *fails fast*: the attempt (and its backoff) is
    skipped entirely, surfacing the last-resort
    :class:`CollateralTimeoutError` immediately — which the trial
    runner then degrades instead of retrying — so fault storms stop
    costing a full retry ladder per trial.
    """
    base = getattr(ctx, "faults", None)
    attempt = 0
    while True:
        if breaker is not None and not breaker.allow(ctx.clock.now()):
            raise CollateralTimeoutError(
                "verification circuit open: failing fast without retries")
        scoped = base.scoped(f"verify/a{attempt}") if base is not None else None
        if base is not None:
            ctx.faults = scoped
        try:
            result = verify_once(scoped)
        except (TransientAttestationError, CollateralTimeoutError):
            if breaker is not None:
                breaker.record_failure(ctx.clock.now())
            if attempt + 1 >= MAX_ATTEMPTS:
                raise
            backoff = backoff_ns(attempt)
            trace = getattr(ctx, "trace", None)
            if trace is not None:
                with trace.span("retry", ctx):
                    backoff_charge(backoff)
            else:
                backoff_charge(backoff)
            attempt += 1
        else:
            if breaker is not None:
                breaker.record_success(ctx.clock.now())
            return result
        finally:
            if base is not None:
                ctx.faults = base


class TdxVerifier:
    """Remote verifier for TDX quotes (collateral from the PCS)."""

    def __init__(self, pcs: IntelPcs, trusted_root: Certificate | None = None,
                 collateral=None) -> None:
        self.pcs = pcs
        self.trusted_root = (
            trusted_root if trusted_root is not None else pcs.root_ca.certificate
        )
        #: where collateral documents come from.  Defaults to the PCS
        #: itself (every fetch is a WAN round-trip); the verifier
        #: service swaps in a
        #: :class:`~repro.attest.service.TieredCollateral` so warm
        #: host/CDN tiers answer instead.  Duck-typed on the four
        #: ``fetch_*`` methods.
        self.collateral = collateral if collateral is not None else pcs

    def verify(self, quote: TdxQuote, ctx: ExecContext,
               expected_report_data: bytes | None = None) -> VerificationResult:
        """Full quote verification; charges network + crypto to ``ctx``.

        Transient failures (injected transients, PCS timeouts) retry
        with backoff charged as network time; a circuit breaker, if
        any, sits on the PCS.  Raises :class:`QuoteVerificationError`
        on any failed check, or the last transient error once retries
        are exhausted.
        """
        return _verify_with_retry(
            lambda faults: self._verify_once(
                quote, ctx, expected_report_data, faults),
            ctx,
            ctx.charge_network,
        )

    def _verify_once(self, quote: TdxQuote, ctx: ExecContext,
                     expected_report_data: bytes | None,
                     faults: FaultContext | None) -> VerificationResult:
        start = ctx.ledger.total()
        result = VerificationResult(accepted=False, platform="tdx")
        if faults is not None and faults.triggers(
                FaultKind.ATTEST_TRANSIENT, "transient"):
            raise TransientAttestationError(
                "tdx: injected transient verification failure")

        # 1. collateral retrieval — the expensive, networked part
        # (or a warm cache tier, when the verifier service wires one)
        tcb = self.collateral.fetch_tcb_info(ctx)
        result.record("fetch_tcb_info")
        qe_identity = self.collateral.fetch_qe_identity(ctx)
        result.record("fetch_qe_identity")
        root_crl = self.collateral.fetch_root_crl(ctx)
        result.record("fetch_root_crl")
        pck_crl = self.collateral.fetch_pck_crl(ctx)
        result.record("fetch_pck_crl")

        # 2. collateral signature checks
        ctx.crypto(2 * VERIFY_COST_NS)
        if not self.pcs.verify_tcb_signature(tcb):
            raise QuoteVerificationError("TCB info signature invalid")
        if not self.pcs.verify_qe_identity_signature(qe_identity):
            raise QuoteVerificationError("QE identity signature invalid")
        require_fresh_status(tcb)
        result.record("collateral_verified")

        # 3. TCB level of the quote vs collateral
        if quote.tee_tcb_svn != tcb.tcb_svn:
            raise QuoteVerificationError(
                f"quote TCB {quote.tee_tcb_svn!r} does not match "
                f"collateral TCB {tcb.tcb_svn!r}"
            )
        result.record("tcb_matched")

        # 4. QE identity of the quote vs collateral
        if (quote.qe_mrsigner != qe_identity.mrsigner
                or quote.qe_isv_svn < qe_identity.isv_svn):
            raise QuoteVerificationError("quoting enclave identity mismatch")
        result.record("qe_identity_matched")

        # 5. PCK chain walk with CRLs
        if len(quote.cert_chain) != 3:
            raise QuoteVerificationError(
                f"expected 3-certificate chain, got {len(quote.cert_chain)}"
            )
        ctx.crypto(len(quote.cert_chain) * VERIFY_COST_NS)
        verify_chain(
            list(quote.cert_chain),
            self.trusted_root,
            now_ns=1.0,
            crls={
                self.pcs.root_ca.name: root_crl,
                self.pcs.pck_ca.name: pck_crl,
            },
        )
        result.record("chain_verified")

        # 6. quote signature under the attestation key
        body = quote.body_bytes()
        ctx.crypto(VERIFY_COST_NS + len(body) * DIGEST_COST_PER_BYTE_NS)
        ak_cert = quote.cert_chain[0]
        if not ak_cert.public_key.verify(body, quote.signature):
            raise QuoteVerificationError("quote signature invalid")
        result.record("signature_verified")

        # 7. optional freshness binding
        if expected_report_data is not None:
            expected_hex = expected_report_data.ljust(64, b"\0").hex()
            if quote.report_data_hex != expected_hex:
                raise QuoteVerificationError("report_data mismatch (stale quote?)")
            result.record("report_data_matched")

        result.accepted = True
        result.elapsed_ns = ctx.ledger.total() - start
        return result


class SnpVerifier:
    """Verifier for SNP reports (three local steps, no network)."""

    def __init__(self, keys: AmdKeyInfrastructure,
                 breaker: CircuitBreaker | None = None) -> None:
        self.keys = keys
        self.trusted_ark = keys.ark.certificate
        #: supervises the VCEK/device-cert path: repeated transient
        #: failures trip it, and further verifies fail fast
        self.breaker = breaker

    def verify(self, report: SnpAttestationReport, ctx: ExecContext,
               expected_report_data: bytes | None = None) -> VerificationResult:
        """snpguest-style verification; charges local costs to ``ctx``.

        Transient failures retry; backoff is charged as crypto time
        (the flow is entirely local).
        """
        return _verify_with_retry(
            lambda faults: self._verify_once(
                report, ctx, expected_report_data, faults),
            ctx,
            ctx.crypto,
            breaker=self.breaker,
        )

    def _verify_once(self, report: SnpAttestationReport, ctx: ExecContext,
                     expected_report_data: bytes | None,
                     faults: FaultContext | None) -> VerificationResult:
        start = ctx.ledger.total()
        result = VerificationResult(accepted=False, platform="sev-snp")
        if faults is not None and faults.triggers(
                FaultKind.ATTEST_TRANSIENT, "transient"):
            raise TransientAttestationError(
                "sev-snp: injected transient verification failure")

        # step 1: obtain the cert chain from the device (local)
        ctx.crypto(DEVICE_CERT_FETCH_NS)
        vcek_cert, ask_cert = self.keys.device_cert_chain()
        result.record("device_certs_fetched")

        # step 2: verify the chain up to the pinned ARK
        ctx.crypto(2 * VERIFY_COST_NS)
        verify_chain([vcek_cert, ask_cert], self.trusted_ark, now_ns=1.0)
        result.record("chain_verified")

        # step 3: verify report signature and fields
        if vcek_cert.extensions.get("chip_id") != report.chip_id:
            raise QuoteVerificationError(
                f"report chip {report.chip_id!r} does not match VCEK "
                f"{vcek_cert.extensions.get('chip_id')!r}"
            )
        body = report.body_bytes()
        ctx.crypto(VERIFY_COST_NS + len(body) * DIGEST_COST_PER_BYTE_NS)
        if not vcek_cert.public_key.verify(body, report.signature):
            raise QuoteVerificationError("report signature invalid")
        result.record("signature_verified")

        if expected_report_data is not None:
            expected_hex = expected_report_data.ljust(64, b"\0").hex()
            if report.report_data_hex != expected_hex:
                raise QuoteVerificationError("report_data mismatch (stale report?)")
            result.record("report_data_matched")

        result.accepted = True
        result.elapsed_ns = ctx.ledger.total() - start
        return result
