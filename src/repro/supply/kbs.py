"""The Key Broker Service: layer keys released only after attestation.

The coco-serverless deployment story: encrypted image layers are
useless until the KBS hands over their decryption keys, and the KBS
hands them over only to a guest whose launch evidence verifies.  The
broker fronts the same :class:`~repro.attest.service.VerifierService`
the pool admission path uses, so:

- a *fresh* launch pays the full evidence + verification price before
  any key moves;
- a *resumed* session (PR 8 :class:`~repro.attest.service.SessionCache`)
  skips evidence generation, verification, and the collateral origin
  round-trip — the supply chain's attestation tax collapses to the
  resume cost plus key wrapping;
- a failed or stale launch gets a typed
  :class:`~repro.errors.KeyReleaseDeniedError`, never a key.

**Freshness is stricter than verification.**  Verification tolerates
stale collateral inside the grace window (availability: a PCS outage
must not take the fleet down), but releasing long-lived layer keys on
evidence checked against a CRL *at or past* ``next_update`` is a
different risk, so the broker re-checks
``now < earliest_crl_expiry_ns`` — strictly, the same boundary
convention :class:`~repro.attest.pcs.FreshnessPolicy`,
:meth:`CertificateRevocationList.is_stale`, and the session cache
use.  At exactly ``next_update`` every consumer agrees the document
is stale.

Every decision lands one entry in a bounded request log; entries
carrying ``!`` are denials, so *clean* entries reconcile exactly with
the ``released`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attest.pcs import RequestLog
from repro.attest.service import LaunchVerdict, VerifierService
from repro.errors import (
    AttestationError,
    KeyReleaseDeniedError,
    SupplyChainError,
)
from repro.hw.nic import wan_path

#: wrapping one layer key to the launch's transport key (symmetric
#: wrap + HMAC, far cheaper than the RSA launch verification)
KEY_WRAP_COST_NS = 45_000.0

#: RCAR handshake payloads: the attestation request carries the quote/
#: report (~5 KiB); the response carries the wrapped keys
KBS_REQUEST_BYTES = 5_120
KBS_RESPONSE_BYTES = 1_024


@dataclass(frozen=True)
class KeyRelease:
    """One successful release: the verdict that earned it + the keys."""

    verdict: LaunchVerdict
    keys: dict[str, bytes] = field(default_factory=dict)
    release_ns: float = 0.0

    @property
    def resumed(self) -> bool:
        return self.verdict.resumed


class KeyBrokerService:
    """Attestation-gated key escrow for encrypted image layers.

    A release needs an accepted launch verdict *and*, when the service
    resolves networked collateral, every cached CRL still strictly
    before its ``next_update``.  The freshness check has no off switch:
    grace-window collateral may pass verification but never earns a key.
    """

    def __init__(self, service: VerifierService,
                 log_capacity: int = 8192) -> None:
        self.service = service
        #: the broker is a remote relying party: every release pays
        #: the RCAR handshake on this path (two exchanges fresh —
        #: challenge then attest — one exchange on session resumption)
        self.nic = wan_path()
        self._keys: dict[str, bytes] = {}
        self.request_log = RequestLog(log_capacity)
        self.stats: dict[str, int] = {
            "released": 0,
            "resumed": 0,
            "denied.attestation": 0,
            "denied.stale_collateral": 0,
            "denied.unknown_key": 0,
        }

    def register_key(self, key_id: str, key: bytes) -> None:
        if not key:
            raise SupplyChainError(f"refusing empty key for {key_id!r}")
        self._keys[key_id] = key

    def register_bundle(self, bundle) -> None:
        """Escrow every layer key of an :class:`ImageBundle`."""
        for key_id, key in bundle.keys.items():
            self.register_key(key_id, key)

    def _deny(self, job, cause: str, reason: str, detail: str
              ) -> KeyReleaseDeniedError:
        self.stats[f"denied.{cause}"] += 1
        self.request_log.append(f"RELEASE {job.measurement}!{cause}")
        return KeyReleaseDeniedError(
            f"key release denied for {job.measurement}: {detail}",
            reason=reason)

    def release(self, job, key_ids, ctx,
                queue_wait_ns: float = 0.0) -> KeyRelease:
        """Verify ``job``'s launch and release ``key_ids`` — or deny.

        All costs (evidence, verification or session resume, key
        wrapping) are charged to ``ctx``; ``release_ns`` is the ledger
        delta, so the caller can put the whole key-release tax on the
        boot critical path.
        """
        before = ctx.ledger.total()
        # RCAR challenge exchange: nonce request precedes evidence
        ctx.charge_network(self.nic.round_trip(KBS_REQUEST_BYTES,
                                               ctx.rng))
        try:
            verdict = self.service.verify_launch(job, ctx, queue_wait_ns)
        except AttestationError as exc:
            # the verifier raises on cryptographic failure (bad chain,
            # bad signature, nonce mismatch); to the broker that is
            # exactly a failed attestation, never a transport error
            raise self._deny(job, "attestation", "attestation",
                             f"launch evidence failed verification: "
                             f"{exc}") from exc
        if not verdict.accepted:
            raise self._deny(job, "attestation", "attestation",
                             "launch evidence failed verification")
        collateral = self.service.collateral
        if collateral is not None:
            expiry_ns = collateral.earliest_crl_expiry_ns()
            # strict boundary: a CRL AT next_update is already stale
            # (the convention FreshnessPolicy / CRL.is_stale / the
            # session cache all share)
            if not ctx.clock.now() < expiry_ns:
                raise self._deny(
                    job, "stale_collateral", "stale_collateral",
                    "verification collateral is at or past next_update")
        missing = [kid for kid in key_ids if kid not in self._keys]
        if missing:
            raise self._deny(job, "unknown_key", "unknown_key",
                             f"no escrowed key for {missing[0]!r}")
        ctx.crypto(KEY_WRAP_COST_NS * len(tuple(key_ids)))
        if not verdict.resumed:
            # the attestation exchange proper; resumed sessions fold
            # ticket + release into the single exchange charged above
            ctx.charge_network(self.nic.round_trip(KBS_RESPONSE_BYTES,
                                                   ctx.rng))
        released = {kid: self._keys[kid] for kid in key_ids}
        self.stats["released"] += 1
        if verdict.resumed:
            self.stats["resumed"] += 1
        self.request_log.append(
            f"RELEASE {job.measurement} keys={len(released)}")
        return KeyRelease(verdict=verdict, keys=released,
                          release_ns=ctx.ledger.total() - before)

    def clean_log_entries(self) -> int:
        """Granted releases in the log — reconciles with ``released``."""
        return self.request_log.clean
