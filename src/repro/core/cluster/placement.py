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
All tie-breaks end on the stable node name, so placement is a pure
function of the fleet state it reads.
"""

from __future__ import annotations

from repro.core.cluster.node import ClusterNode, NodeState


class PlacementScheduler:
    """Stateless policy over a fleet of :class:`ClusterNode`."""

    __slots__ = ("nodes", "affinity_misses")

    def __init__(self, nodes: list[ClusterNode]) -> None:
        self.nodes = nodes
        self.affinity_misses = 0

    def place(self, platform: str, secure: bool, memory_mib: int,
              excluded: tuple[str, ...] = ()) -> ClusterNode | None:
        """Pick a node outside the ``excluded`` zones, or None when
        nothing healthy fits.

        A relaxed placement counts one affinity miss, however many
        zones are excluded.
        """
        node = self._pick(platform, secure, memory_mib, excluded)
        if node is not None:
            return node
        node = self._pick(None, secure, memory_mib, excluded)
        if node is not None:
            self.affinity_misses += 1
        return node

    def _pick(self, platform: str | None, secure: bool, memory_mib: int,
              excluded: tuple[str, ...]) -> ClusterNode | None:
        """Best-fit among healthy candidates (optionally affine)."""
        if secure:
            return self._pick_spread(platform, memory_mib, excluded)
        best = None
        best_key = None
        for node in self.nodes:
            if node.state is not NodeState.HEALTHY:
                continue
            if node.profile.zone in excluded:
                continue
            if platform is not None and node.profile.platform != platform:
                continue
            if not node.can_fit(memory_mib):
                continue
            key = (node.free_mib - memory_mib, node.profile.name)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best

    def _pick_spread(self, platform: str | None, memory_mib: int,
                     excluded: tuple[str, ...]) -> ClusterNode | None:
        """Zone-spread then best-fit, for secure requests."""
        zone_load: dict[str, int] = {}
        for node in self.nodes:
            zone = node.profile.zone
            zone_load[zone] = zone_load.get(zone, 0) + node.secure_active
        best = None
        best_key = None
        for node in self.nodes:
            if node.state is not NodeState.HEALTHY:
                continue
            if node.profile.zone in excluded:
                continue
            if platform is not None and node.profile.platform != platform:
                continue
            if not node.can_fit(memory_mib):
                continue
            key = (zone_load[node.profile.zone],
                   node.free_mib - memory_mib, node.profile.name)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best
