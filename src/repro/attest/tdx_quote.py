"""TDX quote generation (the DCAP path).

Flow, mirroring go-tdx-guest + Intel's DCAP libraries (§IV-C):

1. The TD asks the TDX Module for a TDREPORT bound to 64 bytes of
   caller data (one TDCALL).
2. The report travels to the host-side **Quoting Enclave** (QE),
   which holds an attestation key certified by the platform's PCK
   certificate (provisioned from the Intel PCS at setup time).
3. The QE validates the report's origin and signs the quote body.

The result is a :class:`TdxQuote` carrying the measurements, the QE's
signature, and the PCK certificate chain the verifier will walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.attest.certs import Certificate
from repro.attest.crypto import (
    DIGEST_COST_PER_BYTE_NS,
    SIGN_COST_NS,
    RsaKeyPair,
    derived_keypair,
    derived_signature,
)
from repro.attest.pcs import IntelPcs
from repro.errors import AttestationError
from repro.guestos.context import ExecContext
from repro.sim.rng import SimRng
from repro.tee.tdx import TdReport, TdxModule

#: Fixed QE processing overhead per quote (enclave transitions,
#: report-MAC verification, serialization) — quote generation is the
#: slow attestation step on TDX (hundreds of ms in practice).
QE_PROCESSING_NS = 410_000_000.0


@dataclass(frozen=True)
class TdxQuote:
    """A signed TDX quote."""

    version: int
    tee_type: str
    mrtd_hex: str
    rtmr_hex: tuple[str, ...]
    report_data_hex: str
    tee_tcb_svn: str
    qe_mrsigner: str
    qe_isv_svn: int
    signature: bytes
    cert_chain: tuple[Certificate, ...]    # attestation key cert, PCK, PCK CA

    def body_bytes(self) -> bytes:
        """The signed portion of the quote."""
        return json.dumps(
            {
                "version": self.version,
                "tee_type": self.tee_type,
                "mrtd": self.mrtd_hex,
                "rtmr": list(self.rtmr_hex),
                "report_data": self.report_data_hex,
                "tee_tcb_svn": self.tee_tcb_svn,
                "qe_mrsigner": self.qe_mrsigner,
                "qe_isv_svn": self.qe_isv_svn,
            },
            sort_keys=True,
        ).encode()


class QuotingEnclave:
    """The host-side QE holding a PCK-certified attestation key."""

    MRSIGNER = "intel-qe-signer"
    ISV_SVN = 2
    PLATFORM_ID = "tdx-host-0"

    def __init__(self, pcs: IntelPcs, rng: SimRng) -> None:
        self._pck_key: RsaKeyPair = derived_keypair(rng, "pck-key")
        self.pck_cert = pcs.provision_pck(self.PLATFORM_ID,
                                          self._pck_key.public)
        self._attestation_key: RsaKeyPair = derived_keypair(rng, "ak")
        # The PCK key certifies the attestation key (QE report binding
        # in real DCAP; modelled as a certificate here).
        self.ak_cert = Certificate(
            subject=f"QE AK {self.PLATFORM_ID}",
            issuer=self.pck_cert.subject,
            serial=1,
            public_key=self._attestation_key.public,
            not_before=0.0,
            not_after=self.pck_cert.not_after,
            extensions={"role": "attestation-key"},
        )
        signature = derived_signature(self._pck_key, self.ak_cert.tbs_bytes())
        self.ak_cert = Certificate(
            subject=self.ak_cert.subject,
            issuer=self.ak_cert.issuer,
            serial=self.ak_cert.serial,
            public_key=self.ak_cert.public_key,
            not_before=self.ak_cert.not_before,
            not_after=self.ak_cert.not_after,
            extensions=self.ak_cert.extensions,
            signature=signature,
        )
        self.quotes_generated = 0

    def quote(self, report: TdReport, ctx: ExecContext,
              pck_ca_cert: Certificate) -> TdxQuote:
        """Turn a TDREPORT into a signed quote (charges QE time)."""
        if len(report.report_data) != 64:
            raise AttestationError(
                f"TDREPORT report_data must be 64 bytes, got {len(report.report_data)}"
            )
        self.quotes_generated += 1
        unsigned = TdxQuote(
            version=4,
            tee_type="TDX",
            mrtd_hex=report.mrtd.hex(),
            rtmr_hex=tuple(r.hex() for r in report.rtmr),
            report_data_hex=report.report_data.hex(),
            tee_tcb_svn=report.tee_tcb_svn,
            qe_mrsigner=self.MRSIGNER,
            qe_isv_svn=self.ISV_SVN,
            signature=b"",
            cert_chain=(),
        )
        body = unsigned.body_bytes()
        ctx.crypto(QE_PROCESSING_NS)
        ctx.crypto(SIGN_COST_NS + len(body) * DIGEST_COST_PER_BYTE_NS)
        return TdxQuote(
            version=unsigned.version,
            tee_type=unsigned.tee_type,
            mrtd_hex=unsigned.mrtd_hex,
            rtmr_hex=unsigned.rtmr_hex,
            report_data_hex=unsigned.report_data_hex,
            tee_tcb_svn=unsigned.tee_tcb_svn,
            qe_mrsigner=unsigned.qe_mrsigner,
            qe_isv_svn=unsigned.qe_isv_svn,
            signature=self._attestation_key.sign(body),
            cert_chain=(self.ak_cert, self.pck_cert, pck_ca_cert),
        )


def generate_tdx_quote(
    module: TdxModule,
    qe: QuotingEnclave,
    pcs: IntelPcs,
    ctx: ExecContext,
    report_data: bytes,
    td_identity: str = "td-guest",
) -> TdxQuote:
    """The full in-guest "attest" step the paper times in Fig. 5.

    TDCALL for the TDREPORT, then QE processing and signing.  All
    costs land on ``ctx``; the returned quote is ready to send to a
    verifier.
    """
    report = module.generate_tdreport(report_data, td_identity)
    ctx.vm_transition(module.transition_cost_ns)          # the TDCALL
    ctx.crypto(len(report_data) * DIGEST_COST_PER_BYTE_NS)
    return qe.quote(report, ctx, pcs.pck_ca.certificate)
