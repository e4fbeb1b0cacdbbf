"""One collateral-tier abstraction for every cache in the tree.

Two collateral caches grew independently: PR 8's
:class:`~repro.attest.service.TieredCollateral` (per-host → cluster
CDN → PCS origin, freshness-classified documents) and PR 9's
``repro.core.cluster`` per-zone tiers (fixed tier costs, outage
windows, stale-serving).  They model the same economics, so this
module unifies them behind one protocol:

- :class:`CollateralTier` — the ABC.  One ``fetch(doc, now_ns)``
  surface returning a :class:`TierHit` (which tier answered, what it
  cost, optionally the document itself) or ``None`` when no tier can
  answer; a shared ``hits`` counter dict with one standard key per
  tier label; a shared ``serve_stale`` policy knob (the PR 8 stance:
  a copy inside the grace window is served *marked* rather than
  failing the caller); and one ``emit(sink, prefix)`` folding the
  counters into any duck-typed metrics sink.
- :class:`TierStore` — the dumb per-tier document store both
  implementations build on (endpoint → (document, stored-at ns)).
- :class:`ZonedCollateral` — THE zone-scale implementation, the one
  the cluster gateway uses.  Host warmth is keyed by the caller's
  ``doc.host`` identity string, so the tier works for any orchestrator
  that can name its hosts, without touching cluster-node state.

``repro.attest.service.TieredCollateral`` subclasses the ABC too: its
charged ``fetch_*(ctx)`` provider methods remain (they price network
time on a live execution context), while the uniform ``fetch(doc,
now_ns)`` surface resolves against the already-cached tiers — the
peek the KBS and the cluster admission path share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

#: virtual cost of resolving collateral per tier (ns) — the fixed
#: per-tier economics the cluster sweep attributes its collateral tax
#: with (the service-side TieredCollateral prices CDN hops on a live
#: NIC model instead)
HOST_TIER_NS = 200_000.0
CDN_TIER_NS = 1_200_000.0
ORIGIN_TIER_NS = 25_000_000.0

#: platforms with networked collateral; others (CCA's FVP setup) have
#: nothing to fetch and resolve as a free ``local`` hit
NETWORKED_PLATFORMS = ("tdx", "sev-snp")


@dataclass(frozen=True)
class CollateralDoc:
    """What a caller wants resolved, and on whose behalf.

    ``name`` selects the document (an endpoint key like ``"root_crl"``
    for the service tiers, or the whole ``"bundle"`` for the
    zone-scale tiers that price collateral as one unit).  ``host`` and
    ``zone`` identify the requester — they key host-tier warmth and
    zone-replica selection; an empty ``host`` means "no host tier for
    this caller".
    """

    name: str = "bundle"
    platform: str = "tdx"
    host: str = ""
    zone: str = ""


@dataclass(frozen=True)
class TierHit:
    """One resolved fetch: the answering tier label and its price.

    ``tier`` is one of the standard labels (``host`` / ``cdn`` /
    ``origin`` / ``stale`` / ``local``); ``document`` rides along when
    the tier holds real documents (the service tiers) and is ``None``
    for cost-only models (the zone tiers).
    """

    tier: str
    cost_ns: float
    document: object | None = None


class CollateralTier(abc.ABC):
    """The one collateral-tier protocol both call sites share.

    Subclasses implement :meth:`fetch`; the base class owns the
    standard counter dict (one key per tier label, plus
    ``outage_failures`` for resolutions that failed outright), the
    stale-serving policy knob, and the sink-folding ``emit``.
    """

    #: the standard counter keys, in the order ``emit`` folds them
    HIT_KEYS = ("host", "cdn", "origin", "stale", "outage_failures",
                "local")

    def __init__(self, serve_stale: bool = True) -> None:
        #: stale-serving policy: serve grace-window copies (marked as
        #: the ``stale`` pseudo-tier) instead of failing the caller
        self.serve_stale = serve_stale
        #: tier label -> resolutions answered by that tier
        self.hits: dict[str, int] = {key: 0 for key in self.HIT_KEYS}

    @abc.abstractmethod
    def fetch(self, doc: CollateralDoc, now_ns: float) -> TierHit | None:
        """Resolve ``doc`` through the cheapest warm tier.

        Returns the :class:`TierHit` that answered, or ``None`` when
        no tier can (cold caches behind an unreachable origin) — the
        caller decides whether that fails the launch or re-places it.
        Implementations count every outcome in :attr:`hits`.
        """

    def origin_blacked_out(self, zone: str, now_ns: float) -> bool:
        """Whether the origin is unreachable for ``zone`` at ``now_ns``.

        The base implementation knows no outages; subclasses with an
        outage model (fault windows, open breakers) override this.
        """
        return False

    def emit(self, sink, prefix: str = "collateral") -> None:
        """Fold the standard tier counters into a metrics sink."""
        for name in self.HIT_KEYS:
            sink.count(f"{prefix}.{name}", self.hits[name])


class TierStore:
    """One cache tier: endpoint → (document, stored-at virtual ns)."""

    __slots__ = ("name", "entries")

    def __init__(self, name: str) -> None:
        self.name = name
        self.entries: dict[str, tuple[object, float]] = {}

    def get(self, endpoint: str) -> "tuple[object, float] | None":
        return self.entries.get(endpoint)

    def put(self, endpoint: str, document: object, now_ns: float) -> None:
        self.entries[endpoint] = (document, now_ns)

    def evict(self, endpoint: str) -> None:
        self.entries.pop(endpoint, None)

    def __len__(self) -> int:
        return len(self.entries)


class ZonedCollateral(CollateralTier):
    """Zone-replicated collateral caches plus an origin with outages.

    The zone-scale economics from PR 9: every zone runs its own CDN
    replica, each host keeps a host-side cache (keyed by the caller's
    ``doc.host`` identity), and the origin sits across the WAN.  A
    fetch resolves through the cheapest warm tier:

    - ``host``   — cached for the requesting host: one IPC hop;
    - ``cdn``    — the zone replica is warm: a LAN hop, and the fetch
      warms the host tier on the way through;
    - ``origin`` — cold everywhere: the WAN round-trip, warming both
      the zone CDN and the host;
    - ``stale``  — the origin is blacked out (a ``collateral-outage``
      window in :attr:`outages`) but the zone replica holds a copy it
      cannot refresh: serve it stale (when :attr:`serve_stale`),
      attributed to the ``stale`` pseudo-tier at the CDN price;
    - a blackout with a cold CDN returns ``None`` — the caller
      re-places in another zone (or degrades with a record).

    Costs are fixed per tier so a sweep's collateral tax is exactly
    attributable to its hit pattern.
    """

    def __init__(self, zones: tuple[str, ...] = (),
                 serve_stale: bool = True) -> None:
        super().__init__(serve_stale=serve_stale)
        self.zones = tuple(zones)
        #: zone -> (start_ns, end_ns) origin blackout window
        self.outages: dict[str, tuple[float, float]] = {}
        #: (zone, platform) -> True once a fetch warmed the replica
        self.cdn_warm: dict[tuple[str, str], bool] = {}
        #: (host, platform) -> True once a fetch warmed the host cache
        self.host_warm: dict[tuple[str, str], bool] = {}

    def origin_blacked_out(self, zone: str, now_ns: float) -> bool:
        window = self.outages.get(zone)
        return window is not None and window[0] <= now_ns < window[1]

    def fetch(self, doc: CollateralDoc, now_ns: float) -> TierHit | None:
        if doc.platform not in NETWORKED_PLATFORMS:
            self.hits["local"] += 1
            return TierHit(tier="local", cost_ns=0.0)
        if doc.host and self.host_warm.get((doc.host, doc.platform)):
            self.hits["host"] += 1
            return TierHit(tier="host", cost_ns=HOST_TIER_NS)
        key = (doc.zone, doc.platform)
        if self.cdn_warm.get(key):
            if self.origin_blacked_out(doc.zone, now_ns):
                if not self.serve_stale:
                    self.hits["outage_failures"] += 1
                    return None
                # the replica holds a copy it cannot refresh: serve it
                # stale — marked, never silently
                self.hits["stale"] += 1
                tier = "stale"
            else:
                self.hits["cdn"] += 1
                tier = "cdn"
            if doc.host:
                self.host_warm[(doc.host, doc.platform)] = True
            return TierHit(tier=tier, cost_ns=CDN_TIER_NS)
        if self.origin_blacked_out(doc.zone, now_ns):
            self.hits["outage_failures"] += 1
            return None
        self.hits["origin"] += 1
        self.cdn_warm[key] = True
        if doc.host:
            self.host_warm[(doc.host, doc.platform)] = True
        return TierHit(tier="origin", cost_ns=ORIGIN_TIER_NS)
