"""Placement scheduling: bin-pack, platform affinity, zone spread.

The scheduler answers one question — *which node takes this request* —
under three pressures:

- **bin-pack by guest memory**: best-fit (the candidate left with the
  least free memory after placement) keeps large-memory requests
  placeable for longer than first-fit or round-robin would;
- **platform affinity**: a request built for TDX prefers a TDX host
  (its measurement database, collateral, and image cache live there);
  when no affine host fits, placement *relaxes* to any platform and
  counts the miss rather than failing the request;
- **zone spread for secure workers**: secure requests pick the
  candidate zone with the fewest secure requests in flight first, so
  one zone partition cannot strand a tenant's whole confidential
  footprint.

Only ``HEALTHY`` nodes are candidates: suspect nodes keep their
in-flight work (hedged by the gateway) but take no new placements.
All tie-breaks end on the unique node name, so placement is a pure
function of the fleet state it reads.

The scheduler owns two capacity aggregates, kept current by its
:meth:`~PlacementScheduler.acquire` / :meth:`~PlacementScheduler.release`
wrappers around the node's own: the *open* nodes (``active < cores``)
and each zone's secure load.  A node without a free core can never be
a candidate, so placement scans only the open nodes, and returns at
once when a saturated fleet has none.  Health is read when a node is
scanned, so probe transitions need no hook here.
"""

from __future__ import annotations

from repro.core.cluster.node import ClusterNode, NodeState


class PlacementScheduler:
    """Placement policy plus the capacity aggregates it scans.

    Every capacity change on the fleet must go through :meth:`acquire`
    and :meth:`release`, or the aggregates go stale.  ``placements``
    counts :meth:`place` calls and ``examined`` the nodes scanned on
    their behalf (the work placement costs, as an exact count).
    """

    __slots__ = ("nodes", "affinity_misses", "placements", "examined",
                 "_open", "_zone_load")

    def __init__(self, nodes: list[ClusterNode]) -> None:
        self.nodes = nodes
        self.affinity_misses = 0
        self.placements = 0
        self.examined = 0
        #: nodes with a free core: a superset of every pick's candidates
        self._open = {node for node in nodes
                      if node.active < node.profile.cores}
        #: zone -> secure attempts in flight there (the spread key)
        self._zone_load: dict[str, int] = {}
        for node in nodes:
            zone = node.profile.zone
            self._zone_load[zone] = (self._zone_load.get(zone, 0)
                                     + node.secure_active)

    # -- capacity ------------------------------------------------------

    def acquire(self, node: ClusterNode, function: str, memory_mib: int,
                secure: bool) -> bool:
        """:meth:`ClusterNode.acquire`, keeping the aggregates current."""
        cold = node.acquire(function, memory_mib, secure)
        if node.active >= node.profile.cores:
            self._open.discard(node)
        if secure:
            self._zone_load[node.profile.zone] += 1
        return cold

    def release(self, node: ClusterNode, function: str, memory_mib: int,
                secure: bool, stash: bool = True) -> None:
        """:meth:`ClusterNode.release`, keeping the aggregates current."""
        node.release(function, memory_mib, secure, stash)
        if node.active < node.profile.cores:
            self._open.add(node)
        if secure:
            self._zone_load[node.profile.zone] -= 1

    # -- placement -----------------------------------------------------

    def place(self, platform: str, secure: bool, memory_mib: int,
              excluded: tuple[str, ...] = ()) -> ClusterNode | None:
        """Pick a node outside the ``excluded`` zones, or None when
        nothing healthy fits.

        A relaxed placement counts one affinity miss, however many
        zones are excluded.
        """
        self.placements += 1
        if not self._open:
            return None
        node = self._pick(platform, secure, memory_mib, excluded)
        if node is not None:
            return node
        node = self._pick(None, secure, memory_mib, excluded)
        if node is not None:
            self.affinity_misses += 1
        return node

    def _pick(self, platform: str | None, secure: bool, memory_mib: int,
              excluded: tuple[str, ...]) -> ClusterNode | None:
        """Best-fit among healthy open candidates (optionally affine);
        secure requests rank by their zone's secure load first."""
        zone_load = self._zone_load if secure else None
        self.examined += len(self._open)
        best = None
        best_key = None
        for node in self._open:
            if node.state is not NodeState.HEALTHY:
                continue
            profile = node.profile
            if profile.zone in excluded:
                continue
            if platform is not None and profile.platform != platform:
                continue
            if not node.can_fit(memory_mib):
                continue
            if zone_load is None:
                key = (node.free_mib - memory_mib, profile.name)
            else:
                key = (zone_load[profile.zone],
                       node.free_mib - memory_mib, profile.name)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best
