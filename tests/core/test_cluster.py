"""Unit tests for the cluster resilience layer's components.

Each class covers one module of :mod:`repro.core.cluster` in
isolation — fleet construction, node lifecycle, placement policy,
health probing, the brownout ladder, zone collateral as the gateway
resolves it per node, and the traffic generator.  End-to-end gateway
sweeps live in ``test_cluster_gateway.py``; the tier store itself is
tested with the other collateral-tier implementation in
``tests/attest/test_collateral_tiers.py``.
"""

import pytest

from repro.attest.tiers import (
    CDN_TIER_NS,
    HOST_TIER_NS,
    ORIGIN_TIER_NS,
    CollateralDoc,
    ZonedCollateral,
)
from repro.core.cluster import (
    DEFAULT_ZONES,
    BrownoutLevel,
    ClusterGateway,
    ClusterNode,
    HealthMonitor,
    HostProfile,
    NodeState,
    OverloadController,
    PlacementScheduler,
    TenantMix,
    TrafficGenerator,
    TrafficSpec,
    build_fleet,
)
from repro.core.cluster.gateway import _Request
from repro.errors import GatewayError


class TestFleet:
    def test_deterministic_and_prefix_stable(self):
        eight = build_fleet(8, seed=3)
        twelve = build_fleet(12, seed=3)
        # adding hosts never changes the ones already built
        assert twelve[:8] == eight

    def test_zones_round_robin(self):
        fleet = build_fleet(6)
        per_zone = {zone: 0 for zone in DEFAULT_ZONES}
        for profile in fleet:
            per_zone[profile.zone] += 1
        assert set(per_zone.values()) == {2}

    def test_heterogeneous_beyond_three_hosts(self):
        fleet = build_fleet(4)
        assert len({p.generation for p in fleet}) == 3
        assert len({p.platform for p in fleet}) == 3
        assert all(0.85 <= p.speed <= 1.20 for p in fleet)

    def test_seed_changes_speeds_not_shapes(self):
        a, b = build_fleet(4, seed=0), build_fleet(4, seed=1)
        assert [p.cores for p in a] == [p.cores for p in b]
        assert [p.speed for p in a] != [p.speed for p in b]

    def test_validation(self):
        with pytest.raises(GatewayError):
            build_fleet(0)
        with pytest.raises(GatewayError):
            build_fleet(1, zones=())


class TestNode:
    def node(self):
        return ClusterNode(build_fleet(1)[0])

    def test_acquire_cold_then_warm_after_release(self):
        node = self.node()
        assert node.acquire("f", 512, secure=True) is True      # cold
        node.release("f", 512, secure=True)                     # stashes
        assert node.acquire("f", 512, secure=True) is False     # warm
        assert node.cold_boots == 1 and node.warm_starts == 1

    def test_release_without_stash_keeps_pool_empty(self):
        node = self.node()
        node.acquire("f", 512, secure=False)
        node.release("f", 512, secure=False, stash=False)
        assert node.warm_total == 0

    def test_can_fit_bounds_cores_and_memory(self):
        node = self.node()
        for _ in range(node.profile.cores):
            assert node.can_fit(1)
            node.acquire("f", 1, secure=False)
        assert not node.can_fit(1)                   # cores exhausted
        fresh = self.node()
        assert not fresh.can_fit(fresh.profile.memory_mib + 1)

    def test_warm_cap_bounds_pool(self):
        node = self.node()
        node.warm_cap = 2
        assert node.prewarm("a") and node.prewarm("b")
        assert not node.prewarm("c")

    def test_alive_at_and_slowdown_windows(self):
        node = self.node()
        assert node.alive_at(1e12)
        node.crashed_at_ns = 100.0
        assert node.alive_at(99.0) and not node.alive_at(100.0)
        node.degraded_window = (10.0, 20.0)
        assert node.slowdown_at(15.0, 3.0) == 3.0
        assert node.slowdown_at(20.0, 3.0) == 1.0    # end-exclusive


class TestPlacement:
    def nodes(self, count=6):
        return [ClusterNode(p) for p in build_fleet(count)]

    def test_platform_affinity_preferred(self):
        nodes = self.nodes()
        scheduler = PlacementScheduler(nodes)
        node = scheduler.place("sev-snp", secure=False, memory_mib=256)
        assert node.profile.platform == "sev-snp"
        assert scheduler.affinity_misses == 0

    def test_affinity_relaxes_and_counts_miss(self):
        nodes = self.nodes()
        for node in nodes:
            if node.profile.platform == "cca":
                node.state = NodeState.DEAD
        scheduler = PlacementScheduler(nodes)
        node = scheduler.place("cca", secure=False, memory_mib=256)
        assert node is not None and node.profile.platform != "cca"
        assert scheduler.affinity_misses == 1

    def test_best_fit_picks_least_leftover(self):
        nodes = self.nodes()
        scheduler = PlacementScheduler(nodes)
        # insecure path: pure best-fit, so the smallest-memory host
        # that fits (m1: 16 GiB) wins over the larger generations
        node = scheduler.place(None, secure=False, memory_mib=256)
        assert node.profile.generation == "m1"

    def test_zone_spread_for_secure(self):
        nodes = self.nodes()
        scheduler = PlacementScheduler(nodes)
        for node in nodes:
            if node.profile.zone == "zone-a":
                node.secure_active = 5
        node = scheduler.place(None, secure=True, memory_mib=256)
        assert node.profile.zone != "zone-a"

    def test_only_healthy_nodes_are_candidates(self):
        nodes = self.nodes(2)
        nodes[0].state = NodeState.SUSPECT
        nodes[1].state = NodeState.DEAD
        assert PlacementScheduler(nodes).place(
            None, secure=False, memory_mib=1) is None

    def test_excluded_zones_are_skipped(self):
        nodes = self.nodes()
        scheduler = PlacementScheduler(nodes)
        # both TDX hosts of the six-host fleet are in zone-a
        node = scheduler.place("tdx", secure=True, memory_mib=256,
                               excluded=("zone-a",))
        assert node.profile.zone != "zone-a"
        assert scheduler.affinity_misses == 1
        node = scheduler.place("tdx", secure=True, memory_mib=256,
                               excluded=("zone-b",))
        assert node.profile.platform == "tdx"
        assert scheduler.affinity_misses == 1


class TestZoneExclusion:
    """A collateral blackout re-places a request outside its zone."""

    def gateway(self):
        def host(name, zone, platform, memory_mib):
            return HostProfile(name=name, zone=zone, platform=platform,
                               generation="m1", cores=8,
                               memory_mib=memory_mib, speed=1.0)

        # the only TDX host is in zone-a, and so is the best-fit
        # relaxed host: excluding zone-a leaves only host-02
        return ClusterGateway((
            host("host-00", "zone-a", "tdx", 16384),
            host("host-01", "zone-a", "sev-snp", 16384),
            host("host-02", "zone-b", "sev-snp", 32768),
        ))

    def test_one_relaxed_placement_counts_one_affinity_miss(self):
        gateway = self.gateway()
        request = _Request(rid=0, arrival_ns=0.0, fn=0, secure=True,
                           platform="tdx", memory_mib=256)
        assert gateway._place(request, ()).profile.name == "host-00"
        assert gateway.scheduler.affinity_misses == 0
        node = gateway._place(request, ("zone-a",))
        assert node.profile.name == "host-02"
        assert gateway.scheduler.affinity_misses == 1
        # exclusion is an argument, not a probed-health rewrite
        assert all(n.state is NodeState.HEALTHY for n in gateway.nodes)


class TestHealthMonitor:
    def fleet(self, count=3):
        return [ClusterNode(p) for p in build_fleet(count)]

    def monitor(self, nodes, **kwargs):
        return HealthMonitor(nodes, probe_interval_ns=100.0,
                             probe_timeout_ns=10.0, **kwargs)

    def test_crashed_host_walks_suspect_then_dead(self):
        nodes = self.fleet(1)
        events = []
        monitor = self.monitor(
            nodes,
            on_suspect=lambda n, t: events.append(("suspect", t)),
            on_dead=lambda n, t: events.append(("dead", t)))
        nodes[0].crashed_at_ns = 0.0
        for round_index in range(4):
            monitor.evaluate_round(sent_ns=100.0 * (round_index + 1))
        assert nodes[0].state is NodeState.DEAD
        # transitions land probe_timeout after the send
        assert events == [("suspect", 210.0), ("dead", 410.0)]
        assert monitor.suspected == 1 and monitor.died == 1

    def test_partition_heal_revives_even_dead(self):
        nodes = self.fleet(1)
        monitor = self.monitor(nodes)
        monitor.partitions[nodes[0].profile.zone] = (0.0, 450.0)
        for round_index in range(4):
            monitor.evaluate_round(sent_ns=100.0 * (round_index + 1))
        assert nodes[0].state is NodeState.DEAD
        monitor.evaluate_round(sent_ns=500.0)   # window healed
        assert nodes[0].state is NodeState.HEALTHY
        assert monitor.recovered == 1

    def test_one_answered_probe_resets_the_counter(self):
        nodes = self.fleet(1)
        monitor = self.monitor(nodes)
        monitor.partitions[nodes[0].profile.zone] = (0.0, 150.0)
        monitor.evaluate_round(sent_ns=100.0)   # missed
        assert nodes[0].missed_probes == 1
        monitor.evaluate_round(sent_ns=200.0)   # answered
        assert nodes[0].missed_probes == 0
        assert nodes[0].state is NodeState.HEALTHY

    def test_validation(self):
        with pytest.raises(GatewayError):
            HealthMonitor(self.fleet(1), probe_interval_ns=0.0)
        with pytest.raises(GatewayError):
            HealthMonitor(self.fleet(1), suspect_after=3, dead_after=3)


class TestBrownoutLadder:
    def test_classify_walks_the_ladder(self):
        controller = OverloadController(queue_cap=10)
        assert controller.classify(0) is BrownoutLevel.NORMAL
        assert controller.classify(4) is BrownoutLevel.NORMAL
        assert controller.classify(5) is BrownoutLevel.DROP_TELEMETRY
        assert controller.classify(8) is BrownoutLevel.QUEUE
        assert controller.classify(10) is BrownoutLevel.SHED

    def test_observe_tracks_transitions_and_time(self):
        controller = OverloadController(queue_cap=10)
        controller.observe(0, 0.0)
        controller.observe(10, 100.0)
        controller.observe(0, 250.0)
        controller.finish(400.0)
        assert controller.transitions[BrownoutLevel.SHED] == 1
        assert controller.time_at_level_ns[BrownoutLevel.SHED] == 150.0
        assert controller.time_at_level_ns[BrownoutLevel.NORMAL] == 250.0

    def test_retry_after_hint_scales_with_backlog(self):
        controller = OverloadController(queue_cap=10,
                                        drain_ns_per_request=1000.0)
        # drains to the QUEUE threshold (8): backlog of 2 → 2 drains
        assert controller.retry_after_ns(10) == 2000.0
        assert controller.retry_after_ns(8) == 1000.0   # floor of 1

    def test_validation(self):
        with pytest.raises(GatewayError):
            OverloadController(queue_cap=0)
        with pytest.raises(GatewayError):
            OverloadController(queue_cap=10, telemetry_at=0.9, queue_at=0.5)


def node_fetch(collateral, node, platform, now_ns):
    """Resolve one node's collateral the way the cluster gateway does."""
    return collateral.fetch(CollateralDoc(platform=platform,
                                          host=node.profile.name,
                                          zone=node.profile.zone),
                            now_ns)


class TestZoneCollateral:
    def test_tiers_warm_on_the_way_through(self):
        nodes = [ClusterNode(p) for p in build_fleet(2)]
        collateral = ZonedCollateral(DEFAULT_ZONES)
        # cold everywhere: origin, warming CDN + host
        hit = node_fetch(collateral, nodes[0], "tdx", 0.0)
        assert hit.tier == "origin" and hit.cost_ns == ORIGIN_TIER_NS
        # same node again: host tier
        hit = node_fetch(collateral, nodes[0], "tdx", 0.0)
        assert hit.tier == "host" and hit.cost_ns == HOST_TIER_NS
        assert collateral.hits == {"host": 1, "cdn": 0, "origin": 1,
                                   "stale": 0, "outage_failures": 0,
                                   "local": 0}

    def test_cdn_tier_for_zone_sibling(self):
        fleet = build_fleet(6)
        same_zone = [p for p in fleet if p.zone == fleet[0].zone]
        a, b = ClusterNode(same_zone[0]), ClusterNode(same_zone[1])
        collateral = ZonedCollateral(DEFAULT_ZONES)
        node_fetch(collateral, a, "tdx", 0.0)                    # origin
        hit = node_fetch(collateral, b, "tdx", 0.0)
        assert hit.tier == "cdn" and hit.cost_ns == CDN_TIER_NS

    def test_outage_serves_stale_when_cdn_warm(self):
        fleet = build_fleet(12)
        same_zone = [p for p in fleet if p.zone == fleet[0].zone]
        node, sibling = ClusterNode(same_zone[0]), ClusterNode(same_zone[1])
        collateral = ZonedCollateral(DEFAULT_ZONES)
        node_fetch(collateral, node, "tdx", 0.0)                 # warm CDN
        collateral.outages[node.profile.zone] = (10.0, 100.0)
        hit = node_fetch(collateral, sibling, "tdx", 50.0)
        assert hit.tier == "stale" and hit.cost_ns == CDN_TIER_NS
        assert collateral.hits["stale"] == 1
        # the outage window is end-exclusive: the replica is fresh again
        third = ClusterNode(same_zone[2])
        assert node_fetch(collateral, third, "tdx", 100.0).tier == "cdn"

    def test_outage_with_cold_cdn_fails_the_boot(self):
        node = ClusterNode(build_fleet(1)[0])
        collateral = ZonedCollateral(DEFAULT_ZONES)
        collateral.outages[node.profile.zone] = (0.0, 100.0)
        assert node_fetch(collateral, node, "tdx", 50.0) is None
        assert collateral.hits["outage_failures"] == 1
        # nothing was warmed by the failed resolution
        assert node_fetch(collateral, node, "tdx", 100.0).tier == "origin"

    def test_cca_has_nothing_to_fetch(self):
        node = ClusterNode(build_fleet(1)[0])
        collateral = ZonedCollateral(DEFAULT_ZONES)
        hit = node_fetch(collateral, node, "cca", 0.0)
        assert hit.tier == "local" and hit.cost_ns == 0.0
        assert collateral.hits["local"] == 1


class TestTraffic:
    def mix(self):
        return TenantMix(("tdx", "sev-snp", "cca"))

    def test_mix_covers_the_25_functions(self):
        mix = self.mix()
        assert len(mix.names) == 25
        assert mix.draw(0.0) == 0
        assert mix.draw(0.999999) == len(mix.names) - 1

    def test_zipf_head_dominates(self):
        mix = self.mix()
        generator = TrafficGenerator(TrafficSpec(requests=1000), mix, seed=1)
        counts = [0] * len(mix.names)
        for _ in range(1000):
            index, _ = generator.next_tenant()
            counts[index] += 1
        assert counts[0] > counts[-1]

    def test_trace_is_seed_deterministic(self):
        spec = TrafficSpec(requests=100)
        trace_a, trace_b = [], []
        for trace in (trace_a, trace_b):
            generator = TrafficGenerator(spec, self.mix(), seed=5)
            now = 0.0
            for _ in range(100):
                now += generator.next_gap_ns(now)
                trace.append((now, generator.next_tenant()))
        assert trace_a == trace_b

    def test_burst_and_diurnal_modulate_rate(self):
        mix = self.mix()
        burst = TrafficGenerator(TrafficSpec(
            process="burst", rate_rps=100.0, burst_factor=6.0,
            burst_every_s=20.0, burst_len_s=4.0), mix, seed=0)
        assert burst.rate_at(1e9) == 600.0          # inside the window
        assert burst.rate_at(10e9) == 100.0         # outside
        diurnal = TrafficGenerator(TrafficSpec(
            process="diurnal", rate_rps=100.0, diurnal_period_s=120.0,
            diurnal_swing=0.8), mix, seed=0)
        assert diurnal.rate_at(30e9) == pytest.approx(180.0)   # peak
        assert diurnal.rate_at(90e9) == pytest.approx(20.0)    # trough

    def test_spec_validation(self):
        with pytest.raises(GatewayError):
            TrafficSpec(process="flood")
        with pytest.raises(GatewayError):
            TrafficSpec(requests=0)
        with pytest.raises(GatewayError):
            TrafficSpec(secure_fraction=1.5)

    def test_horizon_matches_rate(self):
        assert TrafficSpec(requests=2000,
                           rate_rps=100.0).horizon_ns == 2e10
