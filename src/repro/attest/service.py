"""The verifier service: attestation at production scale.

On a single launch, attestation cost is a curiosity; on a fleet it is
the critical path.  The paper's Fig. 5 shows the TDX "check" phase is
dominated by WAN round-trips to the Intel PCS — which means a cluster
launching thousands of confidential VMs re-fetches the *same* TCB
info, QE identity and CRLs over and over.  This module models the
production answer, three mechanisms deep:

- **Three-tier collateral cache** (:class:`TieredCollateral`):
  ``per-host → cluster CDN → PCS/KDS origin``.  A host-local hit
  costs an IPC lookup, a CDN hit one LAN round-trip, and only a miss
  everywhere pays the WAN fetch.  Every cached document is classified
  by the :class:`~repro.attest.pcs.FreshnessPolicy` — per-document
  TTL for TCB/QE identity, the signed ``next_update`` (strict
  less-than) for CRLs — with three verdicts: ``fresh`` is served,
  ``stale-but-acceptable`` is served only as an *explicit* fallback
  when the origin is failing, and ``reject`` is evicted.
- **Batch verification queues** (:class:`VerifierService`): quote
  verifications are processed with bounded concurrency in virtual
  time.  The queue model is deterministic — slot assignment is a pure
  fold over the jobs in submission order — so serial and parallel
  sweeps stay byte-identical, like everything else in the runner.
- **Session resumption** (:class:`SessionCache`): a tenant
  re-invoking a warm VM does not re-verify from scratch.  A session
  is keyed on (measurement, TCB level) and pinned to the earliest
  CRL expiry seen at verification time; TCB rotation or a passed
  ``next_update`` invalidates it, so resumption can never outlive
  the evidence it was minted from.

:class:`AttestationInfrastructure` builds one platform's Fig. 5 flow;
:class:`LaunchAttestor` and the attestation trial bodies share it.

Layering: this module sits in ``attest`` (below ``obs``), so metrics
flow through the duck-typed sink protocol (``count`` / ``set_gauge``
/ ``observe``) — the gateway wires its registry in live.  Trial bodies
run where no live sink exists, so they return the components' plain
``stats`` dicts and the experiment harness folds them in afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.attest.pcs import (
    DEFAULT_FRESHNESS,
    FreshnessPolicy,
    IntelPcs,
    Staleness,
)
from repro.attest.snp_report import AmdKeyInfrastructure, generate_snp_report
from repro.attest.tdx_quote import QuotingEnclave, generate_tdx_quote
from repro.attest.tiers import TierStore
from repro.attest.verifier import SnpVerifier, TdxVerifier
from repro.errors import AttestationError, CollateralTimeoutError
from repro.guestos.context import ExecContext
from repro.hw.machine import epyc_9124, xeon_gold_5515
from repro.hw.nic import lan_path
from repro.sim.faults import CircuitBreaker
from repro.sim.rng import SimRng
from repro.tee.sevsnp import AmdSecureProcessor
from repro.tee.tdx import TdxModule

#: Cost of a host-local collateral lookup (shared-memory/IPC, no NIC).
HOST_HIT_NS = 30_000.0

#: Cost of resuming a cached attestation session (one keyed lookup
#: plus a MAC over the session token — no collateral, no signatures).
RESUME_COST_NS = 120_000.0

#: Default lifetime of an attestation session (~1 virtual hour);
#: CRL expiry and TCB rotation can end it earlier.
DEFAULT_SESSION_TTL_NS = 3600 * 1e9

#: Ranking used to attribute a launch to the slowest tier it touched.
_TIER_PRIORITY = ("origin", "stale", "cdn", "host", "warm")


class TieredCollateral:
    """``per-host → cluster CDN → origin`` collateral resolution.

    Implements the same four ``fetch_*`` methods as
    :class:`~repro.attest.pcs.IntelPcs`, so it drops into
    :class:`~repro.attest.verifier.TdxVerifier` as its ``collateral``
    provider.  Pass a shared :class:`TierStore` as ``cdn`` to model
    several hosts behind one cluster cache — the first host's origin
    fetch warms the CDN for everyone else.  CDN hops are priced on a
    LAN path, with draws from a child of the PCS's random stream.

    When the origin itself fails (timeout, open circuit), the tiers
    are consulted once more with relaxed standards: the freshest
    ``stale-but-acceptable`` copy is served — counted and attributed
    to the ``stale`` pseudo-tier — while ``reject``-grade copies are
    evicted and the failure propagates.  Every outcome is counted in
    the one :attr:`stats` dict.
    """

    _ENDPOINTS = {
        "tcb": ("/sgx/certification/v4/tcb", 6_000),
        "qe_identity": ("/sgx/certification/v4/qe/identity", 3_000),
        "root_crl": ("/sgx/certification/v4/rootcacrl", 1_500),
        "pck_crl": ("/sgx/certification/v4/pckcrl", 2_500),
    }

    def __init__(self, pcs: IntelPcs,
                 cdn: TierStore | None = None,
                 freshness: FreshnessPolicy | None = None) -> None:
        self.pcs = pcs
        self.host = TierStore("host")
        self.cdn = cdn if cdn is not None else TierStore("cdn")
        self.freshness = (freshness if freshness is not None
                          else DEFAULT_FRESHNESS)
        self.cdn_network = lan_path()
        self.rng = pcs.rng.child("tiered-collateral")
        self.stats: dict[str, int] = {
            "host.hits": 0,
            "cdn.hits": 0,
            "origin.fetches": 0,
            "stale.served": 0,
            "evictions": 0,
        }

    # -- the provider protocol ------------------------------------------

    def fetch_tcb_info(self, ctx: ExecContext):
        return self._resolve("tcb", ctx, self.pcs.fetch_tcb_info)

    def fetch_qe_identity(self, ctx: ExecContext):
        return self._resolve("qe_identity", ctx, self.pcs.fetch_qe_identity)

    def fetch_root_crl(self, ctx: ExecContext):
        return self._resolve("root_crl", ctx, self.pcs.fetch_root_crl)

    def fetch_pck_crl(self, ctx: ExecContext):
        return self._resolve("pck_crl", ctx, self.pcs.fetch_pck_crl)

    # -- resolution ------------------------------------------------------

    def _resolve(self, key: str, ctx: ExecContext, origin_fetch):
        endpoint, payload_bytes = self._ENDPOINTS[key]
        now = ctx.clock.now()
        # tier walk: host first, then the cluster CDN
        entry = self.host.get(endpoint)
        if entry is not None:
            document, stored_at = entry
            if self.freshness.classify(document, stored_at,
                                       now) is Staleness.FRESH:
                ctx.charge_network(HOST_HIT_NS)
                self.stats["host.hits"] += 1
                return document
        entry = self.cdn.get(endpoint)
        if entry is not None:
            document, stored_at = entry
            if self.freshness.classify(document, stored_at,
                                       now) is Staleness.FRESH:
                ctx.charge_network(
                    self.cdn_network.round_trip(payload_bytes, self.rng))
                self.stats["cdn.hits"] += 1
                # promote into the host tier so the next lookup is local
                self.host.put(endpoint, document, stored_at)
                return document
        try:
            document = origin_fetch(ctx)
        except CollateralTimeoutError:
            fallback = self._stale_fallback(endpoint, ctx.clock.now())
            if fallback is not None:
                self.stats["stale.served"] += 1
                return fallback
            raise
        fetched_at = ctx.clock.now()
        self.host.put(endpoint, document, fetched_at)
        self.cdn.put(endpoint, document, fetched_at)
        self.stats["origin.fetches"] += 1
        return document

    def _stale_fallback(self, endpoint: str, now_ns: float):
        """The freshest acceptable copy across tiers, or None.

        ``reject``-grade copies found on the way are evicted — a
        failing origin must not leave unusable documents pinned in
        the tiers forever.
        """
        best: "tuple[object, float] | None" = None
        for tier in (self.host, self.cdn):
            entry = tier.get(endpoint)
            if entry is None:
                continue
            document, stored_at = entry
            verdict = self.freshness.classify(document, stored_at, now_ns)
            if verdict is Staleness.REJECT:
                tier.evict(endpoint)
                self.stats["evictions"] += 1
                continue
            if best is None or stored_at > best[1]:
                best = (document, stored_at)
        return best[0] if best is not None else None

    # -- session-pinning inputs (no charge: in-memory peeks) -------------

    def current_tcb_svn(self) -> str | None:
        """The TCB level of the cached TCB info, if any tier holds it."""
        for tier in (self.host, self.cdn):
            entry = tier.get(self._ENDPOINTS["tcb"][0])
            if entry is not None:
                return entry[0].tcb_svn
        return None

    def earliest_crl_expiry_ns(self) -> float:
        """The soonest ``next_update`` across cached CRLs (inf if none)."""
        expiry = math.inf
        for key in ("root_crl", "pck_crl"):
            for tier in (self.host, self.cdn):
                entry = tier.get(self._ENDPOINTS[key][0])
                if entry is not None:
                    expiry = min(expiry, entry[0].next_update)
        return expiry

    def purge(self) -> None:
        """Drop every tiered copy (collateral rotation): next fetches
        go back to the origin."""
        self.stats["evictions"] += len(self.host) + len(self.cdn)
        self.host.entries.clear()
        self.cdn.entries.clear()


@dataclass
class AttestationSession:
    """One resumable attestation: measurement pinned to its evidence."""

    measurement: str
    tcb_svn: str | None          # TCB level at full-verification time
    crl_expiry_ns: float         # earliest next_update seen; inf = none
    created_ns: float
    resumed: int = 0


class SessionCache:
    """Measurement-keyed attestation sessions with strict invalidation.

    A session resumes only while *all* of the following hold, every
    comparison strict-less-than so serial and parallel runs agree on
    boundaries:

    - the current TCB level equals the one the session was minted
      under (TCB rotation, including recovery to a newer SVN, ends
      the session);
    - virtual now is strictly before the pinned earliest CRL
      ``next_update`` (CRL rotation ends the session);
    - the session is younger than ``ttl_ns``.

    The cache is bounded: past ``capacity`` live sessions the oldest
    is evicted, so million-launch fleets cannot grow it without bound.
    """

    def __init__(self, ttl_ns: float = DEFAULT_SESSION_TTL_NS,
                 capacity: int = 4096) -> None:
        if ttl_ns <= 0:
            raise AttestationError(f"session ttl must be > 0, got {ttl_ns}")
        if capacity < 1:
            raise AttestationError(
                f"session capacity must be >= 1, got {capacity}")
        self.ttl_ns = ttl_ns
        self.capacity = capacity
        self._sessions: dict[str, AttestationSession] = {}
        self.stats: dict[str, int] = {
            "resumed": 0,
            "established": 0,
            "invalidated.tcb": 0,
            "invalidated.crl": 0,
            "invalidated.expired": 0,
            "invalidated.explicit": 0,
            "evicted": 0,
        }

    def __len__(self) -> int:
        return len(self._sessions)

    def lookup(self, measurement: str, tcb_svn: str | None,
               now_ns: float) -> AttestationSession | None:
        """The live session for ``measurement``, or None.

        Invalid sessions are removed on the spot (and counted by
        cause), so the cache never holds a session that could not
        resume.
        """
        session = self._sessions.get(measurement)
        if session is None:
            return None
        if session.tcb_svn != tcb_svn:
            self._invalidate(measurement, "tcb")
            return None
        if not now_ns < session.crl_expiry_ns:
            self._invalidate(measurement, "crl")
            return None
        if max(0.0, now_ns - session.created_ns) >= self.ttl_ns:
            self._invalidate(measurement, "expired")
            return None
        session.resumed += 1
        self.stats["resumed"] += 1
        return session

    def store(self, measurement: str, tcb_svn: str | None,
              crl_expiry_ns: float, now_ns: float) -> AttestationSession:
        session = AttestationSession(
            measurement=measurement, tcb_svn=tcb_svn,
            crl_expiry_ns=crl_expiry_ns, created_ns=now_ns)
        if measurement not in self._sessions \
                and len(self._sessions) >= self.capacity:
            oldest = next(iter(self._sessions))
            del self._sessions[oldest]
            self.stats["evicted"] += 1
        self._sessions[measurement] = session
        self.stats["established"] += 1
        return session

    def invalidate_all(self) -> int:
        """Explicitly end every session (operator-driven rotation)."""
        count = len(self._sessions)
        self._sessions.clear()
        self.stats["invalidated.explicit"] += count
        return count

    def _invalidate(self, measurement: str, cause: str) -> None:
        del self._sessions[measurement]
        self.stats[f"invalidated.{cause}"] += 1


@dataclass
class VerificationJob:
    """One launch's verification request, evidence built lazily.

    ``build_evidence`` runs (and is charged) only when the launch
    cannot resume a session — skipping quote generation is exactly the
    saving session resumption exists for.
    """

    measurement: str
    nonce: bytes
    build_evidence: Callable[[ExecContext], Any]
    arrival_ns: float = 0.0


@dataclass
class LaunchVerdict:
    """What the service decided for one launch, and what it cost."""

    measurement: str
    accepted: bool
    resumed: bool
    tier: str                   # session | host | cdn | origin | stale | ...
    queue_wait_ns: float
    verify_ns: float

    @property
    def latency_ns(self) -> float:
        """Queue wait plus verification — the launch's attestation tax."""
        return self.queue_wait_ns + self.verify_ns


class VerifierService:
    """Batch quote verification with bounded concurrency and sessions.

    One service fronts one platform verifier
    (:class:`~repro.attest.verifier.TdxVerifier` or
    :class:`~repro.attest.verifier.SnpVerifier`).  ``collateral`` is
    the service's :class:`TieredCollateral` when the platform fetches
    networked collateral (TDX); SNP verification is local, so SNP
    services run without one.  A launch that resumes its session pays
    :data:`RESUME_COST_NS` instead of a full verification.

    Determinism contract: a batch's verdicts are a pure fold over the
    jobs in submission order — slot assignment, session decisions and
    cost charges derive only from the jobs, the service state, and the
    caller's context.  No wall clock, no shared mutable globals.
    """

    def __init__(self, name: str, verifier,
                 collateral: TieredCollateral | None = None,
                 concurrency: int = 4,
                 sessions: SessionCache | None = None,
                 metrics=None) -> None:
        if concurrency < 1:
            raise AttestationError(
                f"concurrency must be >= 1, got {concurrency}")
        self.name = name
        self.verifier = verifier
        self.collateral = collateral
        self.concurrency = concurrency
        self.sessions = sessions if sessions is not None else SessionCache()
        #: optional duck-typed metrics sink (``count`` / ``set_gauge``
        #: / ``observe``); the gateway wires its registry here so
        #: service activity shows in ``GET /v1/metrics`` live
        self.metrics = metrics
        self.stats: dict[str, int] = {
            "launches": 0,
            "verified": 0,
            "resumed": 0,
            "rotations": 0,
        }
        self.queue_depth_peak = 0

    # -- single launches -------------------------------------------------

    def verify_launch(self, job: VerificationJob, ctx: ExecContext,
                      queue_wait_ns: float = 0.0) -> LaunchVerdict:
        """Verify one launch, resuming its session when possible.

        All costs are charged to ``ctx``; ``verify_ns`` is measured as
        the ledger delta so retries, backoff, and collateral-tier
        charges are all attributed to the launch that caused them.
        """
        tcb_svn = (self.collateral.current_tcb_svn()
                   if self.collateral is not None else None)
        before = ctx.ledger.total()
        session = self.sessions.lookup(job.measurement, tcb_svn,
                                       ctx.clock.now())
        if session is not None:
            ctx.crypto(RESUME_COST_NS)
            verdict = LaunchVerdict(
                measurement=job.measurement, accepted=True, resumed=True,
                tier="session", queue_wait_ns=queue_wait_ns,
                verify_ns=ctx.ledger.total() - before)
            self._account(verdict)
            return verdict
        tier_before = (dict(self.collateral.stats)
                       if self.collateral is not None else None)
        evidence = job.build_evidence(ctx)
        result = self.verifier.verify(
            evidence, ctx, expected_report_data=job.nonce)
        if result.accepted:
            self.sessions.store(
                job.measurement,
                tcb_svn=(self.collateral.current_tcb_svn()
                         if self.collateral is not None else None),
                crl_expiry_ns=(self.collateral.earliest_crl_expiry_ns()
                               if self.collateral is not None else math.inf),
                now_ns=ctx.clock.now())
        verdict = LaunchVerdict(
            measurement=job.measurement, accepted=result.accepted,
            resumed=False, tier=self._attribute_tier(tier_before),
            queue_wait_ns=queue_wait_ns,
            verify_ns=ctx.ledger.total() - before)
        self._account(verdict)
        return verdict

    def _attribute_tier(self, before: "dict[str, int] | None") -> str:
        """The slowest collateral tier a full verification touched."""
        if before is None:
            return "local"
        delta = {key: self.collateral.stats[key] - before[key]
                 for key in before}
        for tier in _TIER_PRIORITY:
            if tier == "origin" and delta["origin.fetches"]:
                return "origin"
            if tier == "stale" and delta["stale.served"]:
                return "stale"
            if tier == "cdn" and delta["cdn.hits"]:
                return "cdn"
            if tier == "host" and delta["host.hits"]:
                return "host"
        return "warm"

    # -- batches ---------------------------------------------------------

    def process_batch(self, jobs: "list[VerificationJob]",
                      ctx: ExecContext) -> list[LaunchVerdict]:
        """Verify a batch under the bounded-concurrency queue model.

        Jobs must arrive in non-decreasing ``arrival_ns`` order.  Each
        job starts at ``max(arrival, earliest free slot)``; the wait is
        reported as ``queue_wait_ns`` and the backlog at each arrival
        (jobs admitted earlier but not yet complete) feeds the
        queue-depth peak gauge.
        """
        slots = [0.0] * self.concurrency
        completions: list[float] = []
        verdicts: list[LaunchVerdict] = []
        last_arrival = -math.inf
        for job in jobs:
            if job.arrival_ns < last_arrival:
                raise AttestationError(
                    "batch jobs must be sorted by arrival time")
            last_arrival = job.arrival_ns
            backlog = sum(1 for done in completions if done > job.arrival_ns)
            self.queue_depth_peak = max(self.queue_depth_peak, backlog)
            slot = min(range(self.concurrency), key=slots.__getitem__)
            start = max(job.arrival_ns, slots[slot])
            verdict = self.verify_launch(
                job, ctx, queue_wait_ns=start - job.arrival_ns)
            completion = start + verdict.verify_ns
            slots[slot] = completion
            completions.append(completion)
            verdicts.append(verdict)
        if self.metrics is not None:
            self.metrics.set_gauge(
                f"attest.service.{self.name}.queue_depth_peak",
                self.queue_depth_peak)
        return verdicts

    # -- rotation --------------------------------------------------------

    def rotate_collateral(self) -> None:
        """Collateral rotated at the source (new TCB level, new CRL).

        Purges the cache tiers and ends every session — the next
        launches re-fetch and re-verify against the new world.
        """
        self.stats["rotations"] += 1
        if self.collateral is not None:
            self.collateral.purge()
        self.sessions.invalidate_all()

    # -- accounting ------------------------------------------------------

    def _account(self, verdict: LaunchVerdict) -> None:
        self.stats["launches"] += 1
        self.stats["resumed" if verdict.resumed else "verified"] += 1
        if self.metrics is not None:
            prefix = f"attest.service.{self.name}"
            self.metrics.count(f"{prefix}.launches", 1)
            self.metrics.count(f"{prefix}.tier.{verdict.tier}", 1)
            self.metrics.observe(f"{prefix}.verify_latency_ns",
                                 verdict.latency_ns)


# ---------------------------------------------------------------------------
# One platform's attestation infrastructure
# ---------------------------------------------------------------------------

class AttestationInfrastructure:
    """One platform's fixed Fig. 5 flow, and the only code that builds it.

    TDX: the TD module and the Quoting Enclave quote, checked against
    Intel PCS collateral.  SEV-SNP: the AMD-SP signs a report, checked
    against the VCEK chain.  ``breaker`` guards the PCS fetches on TDX
    and the verifier on SNP.  A plain class, because a dataclass
    ``__repr__`` would print the signing keys its attributes hold.
    """

    SUPPORTED = ("tdx", "sev-snp")

    def __init__(self, platform: str, rng: SimRng,
                 breaker: CircuitBreaker | None = None) -> None:
        if platform not in self.SUPPORTED:
            raise AttestationError(
                f"no attestation flow for platform {platform!r}; "
                f"supported: {', '.join(self.SUPPORTED)}")
        self.platform = platform
        self.breaker = breaker
        if platform == "tdx":
            self.pcs: IntelPcs | None = IntelPcs(rng, breaker=breaker)
            self.qe = QuotingEnclave(self.pcs, rng)
            self.module = TdxModule()
        else:
            self.pcs = None
            self.keys = AmdKeyInfrastructure(rng)
            self.amd_sp = AmdSecureProcessor()

    def evidence(self, ctx: ExecContext, nonce: bytes,
                 identity: str | None = None):
        """The "attest" phase; ``identity=None`` keeps the default."""
        if self.platform == "tdx":
            named = {} if identity is None else {"td_identity": identity}
            return generate_tdx_quote(self.module, self.qe, self.pcs, ctx,
                                      nonce, **named)
        named = {} if identity is None else {"guest_identity": identity}
        return generate_snp_report(self.amd_sp, self.keys, ctx, nonce,
                                   **named)

    def job(self, identity: str, nonce: bytes,
            arrival_ns: float = 0.0) -> VerificationJob:
        """A verification job for ``identity``, evidence built lazily."""
        return VerificationJob(
            measurement=identity, nonce=nonce,
            build_evidence=lambda ctx: self.evidence(ctx, nonce, identity),
            arrival_ns=arrival_ns)

    def verifier(self, collateral: TieredCollateral | None = None):
        """The platform verifier; on TDX it reads ``collateral`` if set."""
        if self.platform == "tdx":
            return TdxVerifier(self.pcs, collateral=collateral)
        return SnpVerifier(self.keys, breaker=self.breaker)

    def service(self, name: str, cdn: TierStore | None = None,
                concurrency: int = 4, metrics=None) -> VerifierService:
        """A verifier service; on TDX it resolves collateral through
        its own :class:`TieredCollateral` behind ``cdn``."""
        collateral = (TieredCollateral(self.pcs, cdn=cdn)
                      if self.pcs is not None else None)
        return VerifierService(name, self.verifier(collateral),
                               collateral=collateral,
                               concurrency=concurrency, metrics=metrics)


# ---------------------------------------------------------------------------
# Launch admission for the gateway's TEE pools
# ---------------------------------------------------------------------------

@dataclass
class Admission:
    """A pool-level launch admission: the verdict plus its full cost.

    ``latency_ns`` covers evidence generation (the guest-side "attest"
    phase) *and* verification — the whole attestation tax a launch
    pays before dispatch.  The pool charges it to the result's STARTUP
    bucket, so the paper's ``elapsed_ns`` metric stays untouched while
    ``total_ns`` carries the true cost.
    """

    verdict: LaunchVerdict
    latency_ns: float


class LaunchAttestor:
    """Per-platform attestation infrastructure for pool admission.

    Owns the platform's :class:`AttestationInfrastructure`, a
    :class:`VerifierService` in front of it, and a machine model to
    price admission work on.  ``admit`` attests one worker VM: the
    first admission of a measurement pays the full attest + check path
    (warming the collateral tiers), later admissions of the same
    measurement resume their session.

    Platforms without a modelled attestation flow (``cca``, ``novm``)
    are not supported — construct only for :data:`SUPPORTED`.
    """

    SUPPORTED = AttestationInfrastructure.SUPPORTED

    #: the host each platform's attestation plane runs on
    _MACHINES = {"tdx": xeon_gold_5515, "sev-snp": epyc_9124}

    def __init__(self, platform: str, seed: int = 0, metrics=None) -> None:
        self.platform = platform
        self.rng = SimRng(seed, f"launch-attestor/{platform}")
        self._admissions = 0
        self.infrastructure = AttestationInfrastructure(platform, self.rng)
        self.pcs = self.infrastructure.pcs
        self.service = self.infrastructure.service(platform, metrics=metrics)
        self.collateral = self.service.collateral

    def admission_context(self, vm_id: str) -> ExecContext:
        """A private context for one admission of ``vm_id``.

        The attestation plane, not the workload's VM — seeded from the
        admission index so repeated admissions draw independent
        nonces.  Consumes one admission slot per call.
        """
        ctx = ExecContext(
            machine=self._MACHINES[self.platform](),
            rng=self.rng.child(f"admit/{vm_id}/{self._admissions}"))
        self._admissions += 1
        return ctx

    def make_job(self, vm_id: str, ctx: ExecContext) -> VerificationJob:
        """The verification job one admission of ``vm_id`` submits.

        Exposed separately from :meth:`admit` so admission-adjacent
        services (the supply-chain Key Broker Service gates layer keys
        on the same evidence) can route the job through their own
        policy before or instead of the plain admit path.
        """
        return self.infrastructure.job(vm_id,
                                       ctx.rng.child("nonce").bytes(16))

    def admit(self, vm_id: str) -> Admission:
        """Attest one launch of the VM identified by ``vm_id``."""
        ctx = self.admission_context(vm_id)
        job = self.make_job(vm_id, ctx)
        verdict = self.service.verify_launch(job, ctx)
        if not verdict.accepted:
            raise AttestationError(
                f"{self.platform}: launch attestation rejected for {vm_id}")
        return Admission(verdict=verdict, latency_ns=ctx.ledger.total())

