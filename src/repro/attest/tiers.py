"""Collateral caching tiers: the shared store and the zone-scale model.

Two collateral caches live in the tree, one per economics model:

- :class:`~repro.attest.service.TieredCollateral` resolves real
  documents (per-host → cluster CDN → PCS origin) on a live execution
  context and classifies each copy's freshness.  Its tiers are
  :class:`TierStore` instances.
- :class:`ZonedCollateral` is the cluster gateway's zone-scale model:
  fixed per-tier costs, per-zone origin outages and stale-serving, and
  no documents.  Host warmth is keyed by the caller's ``doc.host``
  identity string, so it works for any orchestrator that can name its
  hosts, without touching cluster-node state.

Both answer with the same tier labels (``host`` / ``cdn`` / ``origin``
/ ``stale``, plus ``local`` for platforms with nothing to fetch).
"""

from __future__ import annotations

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
    """Whose collateral bundle a caller wants resolved.

    ``host`` and ``zone`` identify the requester — they key host-tier
    warmth and zone-replica selection; an empty ``host`` means "no host
    tier for this caller".
    """

    platform: str = "tdx"
    host: str = ""
    zone: str = ""


@dataclass(frozen=True)
class TierHit:
    """One resolved fetch: the answering tier label and its price."""

    tier: str
    cost_ns: float


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


class ZonedCollateral:
    """Zone-replicated collateral caches plus an origin with outages.

    Every zone runs its own CDN replica, each host keeps a host-side
    cache (keyed by the caller's ``doc.host`` identity), and the origin
    sits across the WAN.  A fetch resolves through the cheapest warm
    tier:

    - ``host``   — cached for the requesting host: one IPC hop;
    - ``cdn``    — the zone replica is warm: a LAN hop, and the fetch
      warms the host tier on the way through;
    - ``origin`` — cold everywhere: the WAN round-trip, warming both
      the zone CDN and the host;
    - ``stale``  — the origin is blacked out (a ``collateral-outage``
      window in :attr:`outages`) but the zone replica holds a copy it
      cannot refresh: it is served stale, attributed to the ``stale``
      pseudo-tier at the CDN price;
    - a blackout with a cold CDN returns ``None`` — the caller
      re-places in another zone (or degrades with a record).

    Costs are fixed per tier so a sweep's collateral tax is exactly
    attributable to its hit pattern, which :attr:`hits` counts.
    """

    def __init__(self) -> None:
        #: tier label -> resolutions answered by that tier, plus
        #: ``outage_failures`` for resolutions that failed outright
        self.hits: dict[str, int] = {
            "host": 0, "cdn": 0, "origin": 0, "stale": 0,
            "outage_failures": 0, "local": 0}
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
        """Resolve ``doc`` through the cheapest warm tier.

        Returns the :class:`TierHit` that answered, or ``None`` when no
        tier can (a cold zone replica behind a blacked-out origin).
        """
        if doc.platform not in NETWORKED_PLATFORMS:
            self.hits["local"] += 1
            return TierHit(tier="local", cost_ns=0.0)
        if doc.host and self.host_warm.get((doc.host, doc.platform)):
            self.hits["host"] += 1
            return TierHit(tier="host", cost_ns=HOST_TIER_NS)
        key = (doc.zone, doc.platform)
        if self.cdn_warm.get(key):
            if self.origin_blacked_out(doc.zone, now_ns):
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
