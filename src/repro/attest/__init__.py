"""Attestation stack.

Reimplements, from scratch, the two attestation flows the paper
measures in Fig. 5:

- **Intel TDX**: the TD obtains a TDREPORT via TDCALL, the Quoting
  Enclave (DCAP) turns it into a signed *quote*, and the verifier
  checks it against collateral (TCB info, QE identity, CRLs) fetched
  over the network from the Intel Provisioning Certification Service
  (PCS) — the network round-trips are why TDX's "check" step is the
  slow one in the paper.
- **AMD SEV-SNP**: the guest requests a report from the AMD-SP
  firmware, signed with the chip-unique VCEK; the verifier obtains
  the ARK→ASK→VCEK chain *from the hardware/host* (no network) and
  validates report signature and fields in three steps, which is why
  both SNP phases are fast.

Cryptography is real: from-scratch RSA (Miller–Rabin key generation,
PKCS#1 v1.5-style SHA-384 signatures, exponentiation in libcrypto's
``BN_mod_exp`` where it loads), JSON-canonical certificates,
chains and CRLs.  Virtual time for crypto operations is charged
through the execution context so the Fig. 5 bench can measure it.
"""

from repro.attest.crypto import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.attest.certs import (
    Certificate,
    CertificateAuthority,
    CertificateRevocationList,
    verify_chain,
)
from repro.attest.pcs import (
    DEFAULT_FRESHNESS,
    FreshnessPolicy,
    IntelPcs,
    RequestLog,
    Staleness,
)
from repro.attest.tiers import (
    CollateralDoc,
    TierHit,
    TierStore,
    ZonedCollateral,
)
from repro.attest.service import (
    Admission,
    AttestationSession,
    LaunchAttestor,
    LaunchVerdict,
    SessionCache,
    TieredCollateral,
    VerificationJob,
    VerifierService,
)
from repro.attest.tdx_quote import QuotingEnclave, TdxQuote, generate_tdx_quote
from repro.attest.snp_report import (
    AmdKeyInfrastructure,
    SnpAttestationReport,
    generate_snp_report,
)
from repro.attest.verifier import (
    SnpVerifier,
    TdxVerifier,
    VerificationResult,
)

__all__ = [
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "Certificate",
    "CertificateAuthority",
    "CertificateRevocationList",
    "verify_chain",
    "IntelPcs",
    "Staleness",
    "FreshnessPolicy",
    "DEFAULT_FRESHNESS",
    "RequestLog",
    "CollateralDoc",
    "TierHit",
    "TierStore",
    "ZonedCollateral",
    "TieredCollateral",
    "AttestationSession",
    "SessionCache",
    "VerificationJob",
    "LaunchVerdict",
    "VerifierService",
    "Admission",
    "LaunchAttestor",
    "QuotingEnclave",
    "TdxQuote",
    "generate_tdx_quote",
    "AmdKeyInfrastructure",
    "SnpAttestationReport",
    "generate_snp_report",
    "TdxVerifier",
    "SnpVerifier",
    "VerificationResult",
]
