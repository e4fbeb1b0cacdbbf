"""Tests for certificates, chains and CRLs."""

import pytest

from repro.attest.certs import (
    Certificate,
    CertificateAuthority,
    verify_chain,
)
from repro.attest.crypto import generate_keypair
from repro.errors import CertificateError, CrlError
from repro.sim.rng import SimRng


@pytest.fixture(scope="module")
def pki():
    """A root CA, an intermediate, and a leaf certificate."""
    rng = SimRng(123, "pki-tests")
    root = CertificateAuthority("Root", rng)
    intermediate = CertificateAuthority("Intermediate", rng, issuer_ca=root)
    leaf_key = generate_keypair(rng.child("leaf"))
    leaf = intermediate.issue("Leaf", leaf_key.public)
    return root, intermediate, leaf, leaf_key


class TestIssuance:
    def test_root_is_self_signed(self, pki):
        root, *_ = pki
        assert root.certificate.is_self_signed()
        assert root.certificate.verify_signature(root.certificate.public_key)

    def test_intermediate_signed_by_root(self, pki):
        root, intermediate, *_ = pki
        assert intermediate.certificate.issuer == "Root"
        assert intermediate.certificate.verify_signature(
            root.certificate.public_key
        )

    def test_leaf_signed_by_intermediate(self, pki):
        _, intermediate, leaf, _ = pki
        assert leaf.verify_signature(intermediate.certificate.public_key)

    def test_serials_increment(self, pki):
        root, *_ = pki
        rng = SimRng(5, "serial")
        key = generate_keypair(rng)
        a = root.issue("A", key.public)
        b = root.issue("B", key.public)
        assert b.serial == a.serial + 1

    def test_extensions_carried_and_signed(self, pki):
        root, *_ = pki
        key = generate_keypair(SimRng(6, "ext"))
        cert = root.issue("X", key.public, extensions={"fmspc": "AABB"})
        assert cert.extensions["fmspc"] == "AABB"
        assert cert.verify_signature(root.certificate.public_key)


class TestChainVerification:
    def test_valid_chain_passes(self, pki):
        root, intermediate, leaf, _ = pki
        verify_chain([leaf, intermediate.certificate], root.certificate)

    def test_empty_chain_rejected(self, pki):
        root, *_ = pki
        with pytest.raises(CertificateError):
            verify_chain([], root.certificate)

    def test_wrong_order_rejected(self, pki):
        root, intermediate, leaf, _ = pki
        with pytest.raises(CertificateError):
            verify_chain([intermediate.certificate, leaf], root.certificate)

    def test_missing_intermediate_rejected(self, pki):
        root, _, leaf, _ = pki
        with pytest.raises(CertificateError):
            verify_chain([leaf], root.certificate)

    def test_forged_leaf_rejected(self, pki):
        root, intermediate, leaf, _ = pki
        forged = Certificate(
            subject="Leaf",
            issuer="Intermediate",
            serial=leaf.serial,
            public_key=generate_keypair(SimRng(66, "attacker")).public,
            not_before=leaf.not_before,
            not_after=leaf.not_after,
            signature=leaf.signature,
        )
        with pytest.raises(CertificateError):
            verify_chain([forged, intermediate.certificate], root.certificate)

    def test_untrusted_root_rejected(self, pki):
        _, intermediate, leaf, _ = pki
        rogue = CertificateAuthority("Rogue", SimRng(7, "rogue"))
        with pytest.raises(CertificateError):
            verify_chain([leaf, intermediate.certificate], rogue.certificate)

    def test_expired_certificate_rejected(self, pki):
        root, intermediate, leaf, _ = pki
        with pytest.raises(CertificateError):
            verify_chain(
                [leaf, intermediate.certificate],
                root.certificate,
                now_ns=leaf.not_after * 2,
            )

    def test_extensions_frozen_at_issue(self, pki):
        """The encoded to-be-signed bytes are kept per certificate, so
        nothing may change what they encode: the extensions cannot be
        mutated, and the dict they were issued from is copied."""
        root, intermediate, _, _ = pki
        issued = {"fmspc": "AABB"}
        leaf = intermediate.issue("Ext", generate_keypair(
            SimRng(14, "ext-leaf")).public, extensions=issued)
        chain = [leaf, intermediate.certificate]
        verify_chain(chain, root.certificate)
        with pytest.raises(TypeError):
            leaf.extensions["fmspc"] = "CCDD"
        issued["fmspc"] = "CCDD"
        assert leaf.extensions == {"fmspc": "AABB"}
        verify_chain(chain, root.certificate)

    def test_non_self_signed_root_rejected(self, pki):
        root, intermediate, leaf, _ = pki
        # presenting the intermediate as a "root" must fail
        with pytest.raises(CertificateError):
            verify_chain([leaf], intermediate.certificate)


class TestRevocation:
    def test_revoked_leaf_rejected(self):
        rng = SimRng(9, "revocation")
        root = CertificateAuthority("Root", rng)
        leaf = root.issue("Leaf", generate_keypair(rng.child("k")).public)
        root.revoke(leaf.serial)
        crl = root.crl(now_ns=1.0)
        with pytest.raises(CrlError):
            verify_chain([leaf], root.certificate, now_ns=2.0,
                         crls={"Root": crl})

    def test_unrevoked_leaf_passes_with_crl(self):
        rng = SimRng(10, "revocation2")
        root = CertificateAuthority("Root", rng)
        leaf = root.issue("Leaf", generate_keypair(rng.child("k")).public)
        crl = root.crl(now_ns=1.0)
        verify_chain([leaf], root.certificate, now_ns=2.0, crls={"Root": crl})

    def test_stale_crl_rejected(self):
        rng = SimRng(11, "revocation3")
        root = CertificateAuthority("Root", rng)
        leaf = root.issue("Leaf", generate_keypair(rng.child("k")).public)
        crl = root.crl(now_ns=0.0, validity_ns=10.0)
        with pytest.raises(CrlError):
            verify_chain([leaf], root.certificate, now_ns=100.0,
                         crls={"Root": crl})

    def test_crl_with_forged_signature_rejected(self):
        rng = SimRng(12, "revocation4")
        root = CertificateAuthority("Root", rng)
        rogue = CertificateAuthority("Root", rng.child("rogue"))  # same name!
        leaf = root.issue("Leaf", generate_keypair(rng.child("k")).public)
        forged_crl = rogue.crl(now_ns=1.0)
        with pytest.raises(CrlError):
            verify_chain([leaf], root.certificate, now_ns=2.0,
                         crls={"Root": forged_crl})

    def test_crl_is_revoked_helper(self):
        rng = SimRng(13, "revocation5")
        root = CertificateAuthority("Root", rng)
        root.revoke(5)
        crl = root.crl()
        assert crl.is_revoked(5)
        assert not crl.is_revoked(6)
