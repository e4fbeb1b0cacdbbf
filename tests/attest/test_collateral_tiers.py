"""The collateral caches, class by class.

:class:`~repro.attest.tiers.ZonedCollateral` is the cluster's
fixed-price zone model; :class:`~repro.attest.service.TieredCollateral`
resolves real documents through :class:`~repro.attest.tiers.TierStore`
tiers and counts every resolution in its one ``stats`` dict.  Both
answer with the same tier labels.  Generated fetch sequences for
``ZonedCollateral`` live in ``tests/core/test_cluster.py``.
"""

from repro.attest import IntelPcs, TieredCollateral
from repro.attest.tiers import (
    CDN_TIER_NS,
    HOST_TIER_NS,
    ORIGIN_TIER_NS,
    CollateralDoc,
    TierStore,
    ZonedCollateral,
)
from repro.guestos.context import ExecContext
from repro.hw.machine import xeon_gold_5515
from repro.sim.rng import SimRng


def make_ctx(seed=1):
    return ExecContext(machine=xeon_gold_5515(),
                       rng=SimRng(seed, "tiers-ctx"))


class TestProtocol:
    def test_standard_hit_keys(self):
        tier = ZonedCollateral()
        assert set(tier.hits) == {"host", "cdn", "origin", "stale",
                                  "outage_failures", "local"}
        assert all(count == 0 for count in tier.hits.values())


class TestZonedCollateral:
    def test_cold_fetch_warms_cdn_then_host(self):
        tier = ZonedCollateral()
        doc = CollateralDoc(platform="tdx", host="h1", zone="z1")
        first = tier.fetch(doc, 0.0)
        assert first.tier == "origin"
        assert first.cost_ns == ORIGIN_TIER_NS
        # same zone, different host: CDN is warm now
        other = tier.fetch(CollateralDoc(platform="tdx", host="h2",
                                         zone="z1"), 0.0)
        assert other.tier == "cdn" and other.cost_ns == CDN_TIER_NS
        # same host again: host tier
        again = tier.fetch(doc, 0.0)
        assert again.tier == "host" and again.cost_ns == HOST_TIER_NS
        assert tier.hits == {"host": 1, "cdn": 1, "origin": 1,
                             "stale": 0, "outage_failures": 0,
                             "local": 0}

    def test_non_networked_platform_is_local_and_free(self):
        tier = ZonedCollateral()
        hit = tier.fetch(CollateralDoc(platform="cca", host="h1",
                                       zone="z1"), 0.0)
        assert hit.tier == "local" and hit.cost_ns == 0.0
        assert tier.hits["local"] == 1

    def test_outage_window_is_half_open_and_per_zone(self):
        tier = ZonedCollateral()
        tier.outages["z1"] = (10.0, 20.0)
        assert not tier.origin_blacked_out("z1", 9.0)
        assert tier.origin_blacked_out("z1", 10.0)
        assert tier.origin_blacked_out("z1", 19.0)
        assert not tier.origin_blacked_out("z1", 20.0)
        assert not tier.origin_blacked_out("z2", 15.0)

    def test_hostless_fetch_warms_no_host_tier(self):
        tier = ZonedCollateral()
        doc = CollateralDoc(platform="sev-snp", host="", zone="z1")
        assert tier.fetch(doc, 0.0).tier == "origin"
        # no host to key warmth on: the replica answers every repeat
        assert tier.fetch(doc, 0.0).tier == "cdn"
        assert tier.host_warm == {}


class TestTierStore:
    def test_put_get_evict(self):
        store = TierStore("cdn")
        assert store.get("crl") is None and len(store) == 0
        store.put("crl", "doc-1", 5.0)
        store.put("crl", "doc-2", 7.0)          # a put replaces
        assert store.get("crl") == ("doc-2", 7.0) and len(store) == 1
        store.evict("crl")
        store.evict("crl")                      # evicting twice is fine
        assert store.get("crl") is None and len(store) == 0


class TestServiceTierFetch:
    def test_provider_path_counts_each_tier_in_stats(self):
        pcs = IntelPcs(SimRng(5, "infra"))
        cdn = TierStore("test-cdn")
        collateral = TieredCollateral(pcs, cdn=cdn)
        ctx = make_ctx(2)
        first = collateral.fetch_root_crl(ctx)
        again = collateral.fetch_root_crl(ctx)
        assert again is first
        # a second host behind the same CDN: its host tier is cold
        sibling = TieredCollateral(pcs, cdn=cdn)
        assert sibling.fetch_root_crl(ctx) is first
        assert collateral.stats["origin.fetches"] == 1
        assert collateral.stats["host.hits"] == 1
        assert sibling.stats["cdn.hits"] == 1
        assert sibling.stats["origin.fetches"] == 0
        collateral.purge()
        assert collateral.stats["evictions"] == 2   # host + CDN copy
        assert len(cdn) == 0
