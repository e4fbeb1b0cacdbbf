"""Certificates, authorities, chains and revocation lists.

A deliberately small X.509 analogue: certificates are canonical-JSON
documents signed with the RSA implementation in
:mod:`repro.attest.crypto`.  Chain verification walks leaf → root,
checking signatures, validity windows and revocation — everything the
TDX/SNP verifiers need.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from repro.attest.crypto import (
    RsaKeyPair,
    RsaPublicKey,
    derived_keypair,
    derived_signature,
)
from repro.errors import CertificateError, CrlError
from repro.sim.rng import SimRng


def _canonical(payload: dict) -> bytes:
    """Canonical JSON bytes (sorted keys) for signing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject name to a public key."""

    subject: str
    issuer: str
    serial: int
    public_key: RsaPublicKey
    not_before: float            # virtual ns
    not_after: float             # virtual ns
    extensions: Mapping[str, object] = field(default_factory=dict)
    signature: bytes = b""

    def __post_init__(self) -> None:
        # frozen like every other field, so the bytes encoded below
        # never outlive a change to what they encode
        object.__setattr__(self, "extensions",
                           MappingProxyType(dict(self.extensions)))

    @cached_property
    def _tbs(self) -> bytes:
        return _canonical({
            "subject": self.subject,
            "issuer": self.issuer,
            "serial": self.serial,
            "key_n": f"{self.public_key.n:x}",
            "key_e": self.public_key.e,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "extensions": {k: str(v)
                           for k, v in sorted(self.extensions.items())},
        })

    def tbs_bytes(self) -> bytes:
        """The to-be-signed content, encoded once per certificate."""
        return self._tbs

    def is_self_signed(self) -> bool:
        return self.subject == self.issuer

    def verify_signature(self, issuer_key: RsaPublicKey) -> bool:
        """True iff the issuer's key signed this certificate."""
        return issuer_key.verify(self.tbs_bytes(), self.signature)


@dataclass(frozen=True)
class CertificateRevocationList:
    """A signed list of revoked serial numbers from one issuer."""

    issuer: str
    revoked_serials: frozenset[int]
    this_update: float
    next_update: float
    signature: bytes = b""

    @cached_property
    def _tbs(self) -> bytes:
        return _canonical(
            {
                "issuer": self.issuer,
                "revoked": sorted(self.revoked_serials),
                "this_update": self.this_update,
                "next_update": self.next_update,
            }
        )

    def tbs_bytes(self) -> bytes:
        """The to-be-signed content, encoded once per CRL."""
        return self._tbs

    def is_revoked(self, serial: int) -> bool:
        return serial in self.revoked_serials

    def is_stale(self, now_ns: float) -> bool:
        """Whether the CRL is no longer fresh at ``now_ns``.

        Freshness requires ``now_ns`` *strictly less than*
        ``next_update``: a CRL whose ``next_update`` equals the
        current clock reading is already stale.  Every consumer
        (chain verification, the PCS cache, the verifier service's
        freshness policy) uses this one predicate so serial and
        parallel runs cannot disagree on the boundary.
        """
        return not now_ns < self.next_update


class CertificateAuthority:
    """A CA that issues certificates and CRLs.

    Roots are self-signed (``issuer_ca=None``); intermediates carry a
    chain back to their root.
    """

    #: Default validity window: ~10 virtual years.
    DEFAULT_VALIDITY_NS = 10 * 365 * 24 * 3600 * 1e9

    def __init__(
        self,
        name: str,
        rng: SimRng,
        issuer_ca: "CertificateAuthority | None" = None,
    ) -> None:
        self.name = name
        self.keypair: RsaKeyPair = derived_keypair(rng, f"ca/{name}")
        self.issuer_ca = issuer_ca
        self._next_serial = 1
        self._revoked: set[int] = set()
        if issuer_ca is None:
            self.certificate = self._make_cert(
                subject=name, issuer=name, key=self.keypair.public,
                signer=self.keypair, serial=0,
            )
        else:
            self.certificate = issuer_ca.issue(name, self.keypair.public)

    def _make_cert(
        self,
        subject: str,
        issuer: str,
        key: RsaPublicKey,
        signer: RsaKeyPair,
        serial: int,
        extensions: dict | None = None,
    ) -> Certificate:
        unsigned = Certificate(
            subject=subject,
            issuer=issuer,
            serial=serial,
            public_key=key,
            not_before=0.0,
            not_after=self.DEFAULT_VALIDITY_NS,
            extensions=extensions if extensions is not None else {},
        )
        signature = derived_signature(signer, unsigned.tbs_bytes())
        return Certificate(
            subject=unsigned.subject,
            issuer=unsigned.issuer,
            serial=unsigned.serial,
            public_key=unsigned.public_key,
            not_before=unsigned.not_before,
            not_after=unsigned.not_after,
            extensions=unsigned.extensions,
            signature=signature,
        )

    def issue(
        self,
        subject: str,
        key: RsaPublicKey,
        extensions: dict | None = None,
    ) -> Certificate:
        """Issue a certificate for ``subject`` binding ``key``."""
        serial = self._next_serial
        self._next_serial += 1
        return self._make_cert(
            subject=subject,
            issuer=self.name,
            key=key,
            signer=self.keypair,
            serial=serial,
            extensions=extensions,
        )

    def revoke(self, serial: int) -> None:
        """Add a serial to this CA's revocation set."""
        self._revoked.add(serial)

    def crl(self, now_ns: float = 0.0,
            validity_ns: float = 7 * 24 * 3600 * 1e9) -> CertificateRevocationList:
        """A freshly signed CRL."""
        unsigned = CertificateRevocationList(
            issuer=self.name,
            revoked_serials=frozenset(self._revoked),
            this_update=now_ns,
            next_update=now_ns + validity_ns,
        )
        return CertificateRevocationList(
            issuer=unsigned.issuer,
            revoked_serials=unsigned.revoked_serials,
            this_update=unsigned.this_update,
            next_update=unsigned.next_update,
            signature=self.keypair.sign(unsigned.tbs_bytes()),
        )


def verify_chain(
    chain: list[Certificate],
    trusted_root: Certificate,
    now_ns: float = 1.0,
    crls: dict[str, CertificateRevocationList] | None = None,
) -> None:
    """Verify ``chain`` (leaf first) up to ``trusted_root``.

    Checks, for every certificate: issuer linkage, signature by the
    issuer's key, validity window, and revocation against the issuer's
    CRL when one is supplied.  CRLs themselves must be signed by the
    issuer and fresh.

    Raises
    ------
    CertificateError / CrlError
        On the first failed check; returns None on success.
    """
    if not chain:
        raise CertificateError("empty certificate chain")

    crls = crls if crls is not None else {}
    path = list(chain) + [trusted_root]

    for cert, issuer_cert in zip(path[:-1], path[1:]):
        if cert.issuer != issuer_cert.subject:
            raise CertificateError(
                f"chain break: {cert.subject!r} names issuer {cert.issuer!r}, "
                f"next cert is {issuer_cert.subject!r}"
            )
        if not cert.verify_signature(issuer_cert.public_key):
            raise CertificateError(f"bad signature on {cert.subject!r}")
        if not (cert.not_before <= now_ns <= cert.not_after):
            raise CertificateError(f"certificate {cert.subject!r} outside validity")
        issuer_crl = crls.get(cert.issuer)
        if issuer_crl is not None:
            if not issuer_crl.signature or not issuer_cert.public_key.verify(
                issuer_crl.tbs_bytes(), issuer_crl.signature
            ):
                raise CrlError(f"CRL from {cert.issuer!r} has a bad signature")
            if issuer_crl.is_stale(now_ns):
                raise CrlError(f"CRL from {cert.issuer!r} is stale")
            if issuer_crl.is_revoked(cert.serial):
                raise CrlError(
                    f"certificate {cert.subject!r} (serial {cert.serial}) revoked"
                )

    root = path[-1]
    if not root.is_self_signed():
        raise CertificateError(f"trusted root {root.subject!r} is not self-signed")
    if not root.verify_signature(root.public_key):
        raise CertificateError(f"trusted root {root.subject!r} self-signature invalid")
