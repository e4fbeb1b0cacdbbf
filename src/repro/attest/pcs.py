"""Simulated Intel Provisioning Certification Service (PCS).

The TDX verification flow (go-tdx-guest over DCAP's Quote Verification
Library) retrieves collateral from Intel's online PCS: the PCK
certificate CRLs, TCB info for the platform, and the QE identity.
Those are real HTTPS round-trips in the paper's setup — the reason the
TDX "check" phase is the slow bar in Fig. 5.

The simulated PCS owns the Intel key hierarchy (Intel SGX/TDX Root CA
→ PCK Platform CA → per-platform PCK leaf) and serves collateral
documents; every ``fetch_*`` charges a WAN round-trip on the caller's
execution context.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from repro.attest.certs import (
    Certificate,
    CertificateAuthority,
    CertificateRevocationList,
)
from repro.attest.crypto import RsaKeyPair, derived_keypair, derived_signature
from repro.errors import AttestationError, CollateralTimeoutError
from repro.guestos.context import ExecContext
from repro.hw.nic import wan_path
from repro.sim.faults import CircuitBreaker, FaultKind
from repro.sim.rng import SimRng

#: Virtual time a timed-out collateral fetch burns before the client
#: gives up (a WAN timeout is far costlier than a healthy round-trip).
_TIMEOUT_BUDGET_NS = 150_000_000.0


class Staleness(enum.Enum):
    """Verdict on a cached collateral document's age."""

    FRESH = "fresh"
    STALE_ACCEPTABLE = "stale-but-acceptable"
    REJECT = "reject"


@dataclass(frozen=True)
class FreshnessPolicy:
    """Per-document staleness rules for cached collateral.

    Two document families exist:

    - **TTL documents** (TCB info, QE identity): fresh while their age
      is strictly below ``ttl_ns``.
    - **CRLs**: fresh while ``now < next_update`` — the signed expiry
      the document itself carries, checked with the same strict
      less-than every CRL consumer uses (no clock-skew divergence on
      the boundary).

    Beyond freshness, a grace window of ``max_stale_ns`` yields
    :attr:`Staleness.STALE_ACCEPTABLE` — a degraded host may keep
    serving such documents (explicitly marked) instead of failing —
    after which the verdict is :attr:`Staleness.REJECT`: the document
    may hide revocations and must not be used.
    """

    #: Age bound for TTL documents (~24 virtual hours by default).
    ttl_ns: float = 24 * 3600 * 1e9
    #: Grace window past expiry before a document is rejected
    #: (~6 virtual hours by default).
    max_stale_ns: float = 6 * 3600 * 1e9

    def __post_init__(self) -> None:
        if self.ttl_ns <= 0:
            raise AttestationError(f"ttl must be > 0, got {self.ttl_ns}")
        if self.max_stale_ns < 0:
            raise AttestationError(
                f"stale grace window must be >= 0, got {self.max_stale_ns}")

    def classify(self, document: object, stored_at_ns: float,
                 now_ns: float) -> Staleness:
        """Verdict for ``document`` cached at ``stored_at_ns``.

        A clock that regressed below the store time (a fresh trial
        context reusing long-lived infrastructure) clamps the age to
        zero — the document cannot be older than its own fetch.
        """
        if isinstance(document, CertificateRevocationList):
            if not document.is_stale(now_ns):
                return Staleness.FRESH
            if now_ns < document.next_update + self.max_stale_ns:
                return Staleness.STALE_ACCEPTABLE
            return Staleness.REJECT
        age_ns = max(0.0, now_ns - stored_at_ns)
        if age_ns < self.ttl_ns:
            return Staleness.FRESH
        if age_ns < self.ttl_ns + self.max_stale_ns:
            return Staleness.STALE_ACCEPTABLE
        return Staleness.REJECT


DEFAULT_FRESHNESS = FreshnessPolicy()


class RequestLog:
    """A bounded request log: ring buffer plus a dropped-entry count.

    Behaves like the plain list it replaces for every consumer pattern
    (append, ``len``, indexing and slicing, iteration, equality with a
    list) but caps memory: once ``capacity`` entries are held, each
    append evicts the oldest entry and bumps :attr:`dropped`, so
    million-launch sweeps cannot grow the log without bound while the
    *recent* window — the part tests and operators inspect — is exact.

    :attr:`clean` counts every unmarked entry (no ``!`` suffix) ever
    appended, evicted or not, so counters reconcile against it at any
    sweep size.
    """

    __slots__ = ("capacity", "dropped", "clean", "_entries")

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise AttestationError(
                f"request log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self.clean = 0
        self._entries: deque[str] = deque(maxlen=capacity)

    def append(self, entry: str) -> None:
        if len(self._entries) == self.capacity:
            self.dropped += 1
        if "!" not in entry:
            self.clean += 1
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestLog):
            return self._entries == other._entries
        if isinstance(other, list):
            return list(self._entries) == other
        return NotImplemented

    def __repr__(self) -> str:
        return (f"RequestLog({list(self._entries)!r}, "
                f"capacity={self.capacity}, dropped={self.dropped})")


@dataclass(frozen=True)
class TcbInfo:
    """Signed TCB (trusted computing base) status for a platform."""

    fmspc: str                  # platform family-model-stepping id
    tcb_svn: str                # minimum acceptable security version
    status: str                 # "UpToDate" | "OutOfDate" | ...
    signature: bytes

    @cached_property
    def _payload(self) -> bytes:
        return json.dumps(
            {"fmspc": self.fmspc, "tcb_svn": self.tcb_svn, "status": self.status},
            sort_keys=True,
        ).encode()

    def payload(self) -> bytes:
        """The signed content, encoded once per document."""
        return self._payload


@dataclass(frozen=True)
class QeIdentity:
    """Signed identity (measurement) of the Quoting Enclave."""

    mrsigner: str
    isv_svn: int
    signature: bytes

    @cached_property
    def _payload(self) -> bytes:
        return json.dumps(
            {"mrsigner": self.mrsigner, "isv_svn": self.isv_svn}, sort_keys=True
        ).encode()

    def payload(self) -> bytes:
        """The signed content, encoded once per document."""
        return self._payload


class IntelPcs:
    """The PCS endpoint plus the Intel CA hierarchy behind it.

    With a :class:`~repro.sim.faults.CircuitBreaker` attached, repeated
    collateral timeouts trip the circuit: further fetches short-circuit
    to the last good document for the endpoint (logged as
    ``<endpoint>!cached``) instead of burning the full client-side
    timeout budget, or fail immediately (``<endpoint>!open``) when no
    collateral was ever cached.  Without a breaker the behaviour — and
    the request log, cost accounting, and returned documents — is
    byte-identical to the pre-breaker PCS.
    """

    def __init__(
        self,
        rng: SimRng,
        breaker: CircuitBreaker | None = None,
        freshness: FreshnessPolicy | None = None,
        log_capacity: int = 8192,
    ) -> None:
        self.rng = rng.child("intel-pcs")
        self.network = wan_path()
        self.root_ca = CertificateAuthority("Intel SGX Root CA", self.rng)
        self.pck_ca = CertificateAuthority(
            "Intel PCK Platform CA", self.rng, issuer_ca=self.root_ca
        )
        self.fmspc = "50806F000000"
        #: the TCB level the PCS publishes (rotation assigns a new one)
        self.tcb_svn = "TDX_1.5.05.46.698"
        self._tcb_signing_key: RsaKeyPair = derived_keypair(
            self.rng, "tcb-signing"
        )
        self.tcb_signing_cert = self.root_ca.issue(
            "Intel TCB Signing", self._tcb_signing_key.public
        )
        self.request_log = RequestLog(capacity=log_capacity)
        self.breaker = breaker
        self.freshness = (freshness if freshness is not None
                          else DEFAULT_FRESHNESS)
        #: endpoint -> last successfully fetched document (served when
        #: the circuit is open, so degraded trials keep attesting —
        #: subject to :attr:`freshness`)
        self.collateral_cache: dict[str, object] = {}
        #: endpoint -> virtual fetch time of the cached document
        self.collateral_fetched_at: dict[str, float] = {}

    # -- provisioning (no network: happens at manufacturing time) -------

    def provision_pck(self, platform_id: str, key) -> Certificate:
        """Issue the per-platform PCK certificate."""
        return self.pck_ca.issue(
            f"PCK {platform_id}", key, extensions={"fmspc": self.fmspc}
        )

    # -- collateral endpoints (each costs a WAN round-trip) --------------

    def _round_trip(self, ctx: ExecContext, endpoint: str, payload_bytes: int) -> None:
        faults = getattr(ctx, "faults", None)
        if faults is not None and faults.triggers(FaultKind.PCS_TIMEOUT, endpoint):
            # the fetch hangs until the client-side timeout fires; the
            # wasted wait is still network time on the caller's ledger
            self.request_log.append(endpoint + "!timeout")
            ctx.charge_network(_TIMEOUT_BUDGET_NS)
            raise CollateralTimeoutError(
                f"PCS {endpoint}: collateral fetch timed out"
            )
        self.request_log.append(endpoint)
        cost = self.network.round_trip(payload_bytes, self.rng)
        ctx.charge_network(cost)

    def _fetch(self, ctx: ExecContext, endpoint: str, payload_bytes: int,
               build):
        """One collateral GET, supervised by the optional breaker.

        An open circuit short-circuits without any network charge —
        but never serves arbitrarily old documents: the cached
        fallback is classified by :attr:`freshness` first.  A fresh
        document is served as before (``!cached``); one inside the
        grace window is served *marked* (``!stale``) so degraded
        operation is visible in the log; one past the grace window is
        evicted and the fetch fails (``!open``) — a revoked or rotated
        document must not keep attesting forever.  Successes refresh
        the cache and close the circuit; timeouts feed the breaker's
        failure count.
        """
        if self.breaker is not None and not self.breaker.allow(
                ctx.clock.now()):
            cached = self.collateral_cache.get(endpoint)
            if cached is not None:
                verdict = self.freshness.classify(
                    cached, self.collateral_fetched_at.get(endpoint, 0.0),
                    ctx.clock.now())
                if verdict is Staleness.FRESH:
                    self.request_log.append(endpoint + "!cached")
                    return cached
                if verdict is Staleness.STALE_ACCEPTABLE:
                    self.request_log.append(endpoint + "!stale")
                    return cached
                # REJECT: too old to trust — drop it and fail the fetch
                del self.collateral_cache[endpoint]
                self.collateral_fetched_at.pop(endpoint, None)
            self.request_log.append(endpoint + "!open")
            raise CollateralTimeoutError(
                f"PCS {endpoint}: circuit open and no acceptable "
                "cached collateral")
        try:
            self._round_trip(ctx, endpoint, payload_bytes)
        except CollateralTimeoutError:
            if self.breaker is not None:
                self.breaker.record_failure(ctx.clock.now())
            raise
        document = build()
        if self.breaker is not None:
            self.breaker.record_success(ctx.clock.now())
        self.collateral_cache[endpoint] = document
        self.collateral_fetched_at[endpoint] = ctx.clock.now()
        return document

    def fetch_tcb_info(self, ctx: ExecContext) -> TcbInfo:
        """GET /tcb — signed TCB status for the platform."""

        def build() -> TcbInfo:
            unsigned = TcbInfo(fmspc=self.fmspc, tcb_svn=self.tcb_svn,
                               status="UpToDate", signature=b"")
            return TcbInfo(
                fmspc=unsigned.fmspc,
                tcb_svn=unsigned.tcb_svn,
                status=unsigned.status,
                signature=derived_signature(self._tcb_signing_key,
                                            unsigned.payload()),
            )

        return self._fetch(ctx, "/sgx/certification/v4/tcb", 6_000, build)

    def fetch_qe_identity(self, ctx: ExecContext) -> QeIdentity:
        """GET /qe/identity — signed QE identity."""

        def build() -> QeIdentity:
            unsigned = QeIdentity(mrsigner="intel-qe-signer", isv_svn=2,
                                  signature=b"")
            return QeIdentity(
                mrsigner=unsigned.mrsigner,
                isv_svn=unsigned.isv_svn,
                signature=derived_signature(self._tcb_signing_key,
                                            unsigned.payload()),
            )

        return self._fetch(ctx, "/sgx/certification/v4/qe/identity", 3_000,
                           build)

    def fetch_root_crl(self, ctx: ExecContext) -> CertificateRevocationList:
        """GET /rootcacrl — the root CA's CRL."""
        return self._fetch(ctx, "/sgx/certification/v4/rootcacrl", 1_500,
                           lambda: self.root_ca.crl(now_ns=ctx.clock.now()))

    def fetch_pck_crl(self, ctx: ExecContext) -> CertificateRevocationList:
        """GET /pckcrl — the PCK platform CA's CRL."""
        return self._fetch(ctx, "/sgx/certification/v4/pckcrl", 2_500,
                           lambda: self.pck_ca.crl(now_ns=ctx.clock.now()))

    def verify_tcb_signature(self, tcb: TcbInfo) -> bool:
        """Check a TCB document against the TCB signing certificate."""
        return self.tcb_signing_cert.public_key.verify(tcb.payload(), tcb.signature)

    def verify_qe_identity_signature(self, identity: QeIdentity) -> bool:
        """Check a QE identity document's signature."""
        return self.tcb_signing_cert.public_key.verify(
            identity.payload(), identity.signature
        )


def require_fresh_status(tcb: TcbInfo) -> None:
    """Reject platforms whose TCB is not up to date."""
    if tcb.status != "UpToDate":
        raise AttestationError(f"platform TCB status is {tcb.status!r}")
