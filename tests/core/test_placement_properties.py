"""Placement from the open-node aggregates equals the full-fleet scan.

``PlacementScheduler`` scans only the nodes with a free core and keeps
each zone's secure load current through its ``acquire``/``release``
wrappers.  The property test drives random fleets through random
capacity, health and placement sequences and compares every answer
with :class:`ScanOracle`, the scan over the whole fleet that the
scheduler replaced (kept here verbatim).  The count gate then pins
what the aggregates save as an exact, host-independent number: nodes
examined per placement, at 8 and at 128 hosts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import (
    ClusterGateway,
    ClusterNode,
    HostProfile,
    NodeState,
    PlacementScheduler,
)
from repro.experiments.fig9_cluster import run_fig9

PLATFORMS = ("tdx", "sev-snp", "cca")
ZONES = ("zone-a", "zone-b", "zone-c", "zone-d")
FUNCTIONS = ("f", "g", "h")


class ScanOracle:
    """The fleet-scanning placement policy, as it was before the
    scheduler kept capacity aggregates."""

    def __init__(self, nodes: list[ClusterNode]) -> None:
        self.nodes = nodes
        self.affinity_misses = 0

    def place(self, platform: str, secure: bool, memory_mib: int,
              excluded: tuple[str, ...] = ()) -> ClusterNode | None:
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


host_shapes = st.tuples(
    st.sampled_from(ZONES),
    st.sampled_from(PLATFORMS),
    st.integers(min_value=1, max_value=4),            # cores
    st.sampled_from((1024, 2048, 3072, 4096)),        # memory_mib
)
memories = st.sampled_from((256, 512, 1024, 2048))


def fleet(shapes) -> list[ClusterNode]:
    return [ClusterNode(HostProfile(
        name=f"host-{index:02d}", zone=zone, platform=platform,
        generation="m1", cores=cores, memory_mib=memory_mib, speed=1.0))
        for index, (zone, platform, cores, memory_mib) in enumerate(shapes)]


class TestPlacementEqualsScan:
    @settings(max_examples=150, deadline=None)
    @given(shapes=st.lists(host_shapes, min_size=1, max_size=40),
           data=st.data())
    def test_same_node_and_affinity_misses_as_the_scan(self, shapes, data):
        nodes = fleet(shapes)
        scheduler = PlacementScheduler(nodes)
        oracle = ScanOracle(nodes)
        in_flight: list[tuple[ClusterNode, str, int, bool]] = []
        steps = data.draw(st.integers(min_value=1, max_value=80))
        for _ in range(steps):
            op = data.draw(st.sampled_from(
                ("place", "place", "acquire", "release", "release",
                 "health")))
            if op == "place":
                platform = data.draw(st.sampled_from(PLATFORMS))
                secure = data.draw(st.booleans())
                memory_mib = data.draw(memories)
                excluded = tuple(data.draw(
                    st.lists(st.sampled_from(ZONES), max_size=2,
                             unique=True)))
                picked = scheduler.place(platform, secure, memory_mib,
                                         excluded)
                expected = oracle.place(platform, secure, memory_mib,
                                        excluded)
                assert picked is expected
                assert scheduler.affinity_misses == oracle.affinity_misses
                if picked is not None and data.draw(st.booleans()):
                    fn = data.draw(st.sampled_from(FUNCTIONS))
                    scheduler.acquire(picked, fn, memory_mib, secure)
                    in_flight.append((picked, fn, memory_mib, secure))
            elif op == "acquire":
                # capacity taken outside placement, even past the cores
                node = data.draw(st.sampled_from(nodes))
                fn = data.draw(st.sampled_from(FUNCTIONS))
                memory_mib = data.draw(memories)
                secure = data.draw(st.booleans())
                scheduler.acquire(node, fn, memory_mib, secure)
                in_flight.append((node, fn, memory_mib, secure))
            elif op == "release" and in_flight:
                index = data.draw(st.integers(0, len(in_flight) - 1))
                node, fn, memory_mib, secure = in_flight.pop(index)
                scheduler.release(node, fn, memory_mib, secure,
                                  stash=data.draw(st.booleans()))
            elif op == "health":
                node = data.draw(st.sampled_from(nodes))
                node.state = data.draw(st.sampled_from(tuple(NodeState)))

    def test_saturated_fleet_examines_nothing(self):
        nodes = fleet([("zone-a", "tdx", 1, 4096),
                       ("zone-b", "cca", 1, 4096)])
        scheduler = PlacementScheduler(nodes)
        for node in nodes:
            scheduler.acquire(node, "f", 256, secure=True)
        assert scheduler.place("tdx", True, 256) is None
        assert scheduler.examined == 0
        scheduler.release(nodes[1], "f", 256, secure=True)
        assert scheduler.place("tdx", True, 256) is nodes[1]
        assert scheduler.affinity_misses == 1


def examined_per_placement(monkeypatch, hosts: int) -> float:
    """Nodes scanned per ``place`` call over a serial fig9 sweep."""
    schedulers: list[PlacementScheduler] = []
    original = ClusterGateway.run

    def run(gateway, traffic):
        schedulers.append(gateway.scheduler)
        return original(gateway, traffic)

    monkeypatch.setattr(ClusterGateway, "run", run)
    run_fig9(seed=0, hosts=hosts, requests=20_000, rate_rps=300.0 * hosts)
    assert schedulers
    placements = sum(s.placements for s in schedulers)
    return sum(s.examined for s in schedulers) / placements


class TestFleetSizeGate:
    """Exact counts, so a slow or shared host cannot flake them.  The
    full-fleet scan examined 14.7 nodes per placement at 8 hosts and
    234 at 128."""

    def test_eight_hosts(self, monkeypatch):
        assert examined_per_placement(monkeypatch, 8) <= 2.0

    def test_128_hosts(self, monkeypatch):
        assert examined_per_placement(monkeypatch, 128) <= 8.0
