"""The unified CollateralTier protocol and its two implementations.

Exactly one collateral-tier implementation per economics model
exists: :class:`~repro.attest.service.TieredCollateral` (documents
over a live context) and :class:`~repro.attest.tiers.ZonedCollateral`
(fixed zone-scale costs, the cluster's per-zone tiers), both under
the :class:`~repro.attest.tiers.CollateralTier` ABC with the same
``fetch(doc, now_ns)`` surface, tier labels, and counters.
"""

import pytest

from repro.attest import IntelPcs, TieredCollateral
from repro.attest.tiers import (
    CDN_TIER_NS,
    HOST_TIER_NS,
    ORIGIN_TIER_NS,
    CollateralDoc,
    CollateralTier,
    TierHit,
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
    def test_both_implementations_share_the_abc(self):
        pcs = IntelPcs(SimRng(1, "infra"))
        assert isinstance(TieredCollateral(pcs), CollateralTier)
        assert isinstance(ZonedCollateral(("z1",)), CollateralTier)

    def test_abc_is_abstract(self):
        with pytest.raises(TypeError):
            CollateralTier()

    def test_standard_hit_keys(self):
        tier = ZonedCollateral(("z1",))
        assert set(tier.hits) == set(CollateralTier.HIT_KEYS)
        assert all(count == 0 for count in tier.hits.values())

    def test_emit_folds_counters_into_sink(self):
        class Sink:
            def __init__(self):
                self.counts = {}

            def count(self, name, value=1):
                self.counts[name] = self.counts.get(name, 0) + value

        tier = ZonedCollateral(("z1",))
        tier.fetch(CollateralDoc(platform="tdx", host="h1", zone="z1"),
                   0.0)
        sink = Sink()
        tier.emit(sink)
        assert sink.counts["collateral.origin"] == 1


class TestZonedCollateral:
    def test_cold_fetch_warms_cdn_then_host(self):
        tier = ZonedCollateral(("z1",))
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
        tier = ZonedCollateral(("z1",))
        hit = tier.fetch(CollateralDoc(platform="cca", host="h1",
                                       zone="z1"), 0.0)
        assert hit.tier == "local" and hit.cost_ns == 0.0
        assert tier.hits["local"] == 1


class TestServiceTierFetch:
    def test_context_free_peek_resolves_cached_tiers(self):
        pcs = IntelPcs(SimRng(5, "infra"))
        cdn = TierStore("test-cdn")
        collateral = TieredCollateral(pcs, cdn=cdn)
        ctx = make_ctx(2)
        # warm the tiers through the charged provider path
        collateral.fetch_root_crl(ctx)
        hit = collateral.fetch(CollateralDoc(name="root_crl"),
                               ctx.clock.now())
        assert isinstance(hit, TierHit)
        assert hit.tier in ("host", "cdn")
        assert hit.document is not None
        assert collateral.hits[hit.tier] >= 1

    def test_peek_misses_cold_cache(self):
        pcs = IntelPcs(SimRng(6, "infra"))
        collateral = TieredCollateral(pcs)
        assert collateral.fetch(CollateralDoc(name="root_crl"),
                                0.0) is None
