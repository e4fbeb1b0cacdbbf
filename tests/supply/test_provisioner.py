"""The launch provisioner end to end, and its TeePool wiring.

Attest → KBS key release → pull/verify/decrypt/unpack, in that order;
a denial or a tampered layer aborts the launch with nothing unpacked,
and a pool with a provisioner pays the full supply-chain tax in the
serving result's STARTUP bucket.
"""

import pytest

from repro.attest import LaunchAttestor
from repro.attest.crypto import derived_keypair
from repro.core.pool import TeePool
from repro.errors import ImageVerificationError, KeyReleaseDeniedError
from repro.obs.metrics import MetricsRegistry
from repro.sim.ledger import CostCategory
from repro.sim.rng import SimRng
from repro.supply import (
    KeyBrokerService,
    LaunchProvisioner,
    Registry,
    build_image,
    sign_image,
)
from repro.tee.registry import platform_by_name


def make_chain(seed=17, strategy="eager", platform="tdx"):
    rng = SimRng(seed, "prov-test")
    bundle = build_image("app", "v1", rng.child("image"))
    publisher = derived_keypair(rng.child("publisher"), "publisher")
    sign_image(bundle, publisher)
    registry = Registry()
    registry.push(bundle)
    attestor = LaunchAttestor(platform, seed=seed)
    kbs = KeyBrokerService(attestor.service)
    kbs.register_bundle(bundle)
    provisioner = LaunchProvisioner(
        attestor, registry, kbs, ("app", "v1"),
        publisher_key=publisher.public, strategy=strategy,
        key_ids=bundle.manifest.key_ids)
    return provisioner, bundle, registry, kbs


class TestProvision:
    def test_eager_provision_unpacks_whole_image(self):
        provisioner, bundle, _registry, kbs = make_chain()
        report = provisioner.provision("vm-1")
        assert report.pull.chunks_fetched == bundle.manifest.total_chunks
        assert report.pull.signature_verified
        assert report.image is None
        assert report.fs.total_files() == bundle.manifest.total_chunks
        assert report.admission_ns > report.release_ns > 0.0
        assert not report.resumed
        assert provisioner.stats["provisioned"] == 1
        assert kbs.stats["released"] == 1

    def test_lazy_provision_returns_faultable_image(self):
        provisioner, bundle, _registry, _kbs = make_chain(strategy="lazy")
        report = provisioner.provision("vm-1")
        assert report.image is not None
        layers = len(bundle.manifest.layers)
        assert report.pull.chunks_fetched == layers
        assert report.fs.total_files() == layers

    def test_second_provision_resumes_and_is_cheaper(self):
        provisioner, _bundle, _registry, kbs = make_chain()
        cold = provisioner.provision("vm-1")
        warm = provisioner.provision("vm-1")
        assert warm.resumed and not cold.resumed
        assert warm.admission_ns < cold.admission_ns
        assert provisioner.stats["resumed"] == 1
        assert kbs.stats["resumed"] == 1

    def test_tampered_layer_aborts_with_typed_error(self):
        provisioner, bundle, registry, _kbs = make_chain()
        registry.tamper(bundle.manifest.layers[0].chunks[1].digest)
        with pytest.raises(ImageVerificationError):
            provisioner.provision("vm-1")
        assert provisioner.stats["aborted"] == 1
        assert provisioner.stats["provisioned"] == 0

    def test_denied_release_aborts_before_any_pull(self):
        provisioner, _bundle, registry, kbs = make_chain()
        provisioner.key_ids = ("ghost",)
        with pytest.raises(KeyReleaseDeniedError):
            provisioner.provision("vm-1")
        assert provisioner.stats["aborted"] == 1
        assert registry.stats["manifest_fetches"] == 0
        assert kbs.stats["denied.unknown_key"] == 1

    def test_unknown_strategy_rejected(self):
        provisioner, bundle, registry, kbs = make_chain()
        with pytest.raises(ValueError):
            LaunchProvisioner(provisioner.attestor, registry, kbs,
                              ("app", "v1"), strategy="psychic")


class TestPoolIntegration:
    def _pool(self, provisioner, metrics=None):
        platform = platform_by_name("tdx", seed=2)
        pool = TeePool(platform="tdx", secure=True)
        vm = platform.create_vm()
        vm.boot()
        pool.add_worker(vm, 9100)
        pool.provisioner = provisioner
        if metrics is not None:
            pool.metrics = metrics
        return pool

    def test_first_dispatch_provisions_and_charges_startup(self):
        provisioner, _bundle, _registry, _kbs = make_chain()
        metrics = MetricsRegistry()
        pool = self._pool(provisioner, metrics)
        result = pool.run_resilient(lambda k: "ok", name="x", trial=0)
        assert result.output == "ok"
        assert pool.workers[0].attested
        assert provisioner.stats["provisioned"] == 1
        assert result.ledger.get(CostCategory.STARTUP) > 0
        assert result.total_ns > result.elapsed_ns
        snap = metrics.snapshot()
        assert snap["counters"]["pool.tdx.secure.provisioned"] == 1

    def test_provisioning_happens_once_per_worker(self):
        provisioner, _bundle, registry, _kbs = make_chain()
        pool = self._pool(provisioner)
        pool.run_resilient(lambda k: 1, name="x", trial=0)
        fetched = registry.stats["chunk_fetches"]
        pool.run_resilient(lambda k: 1, name="x", trial=1)
        assert provisioner.stats["provisioned"] == 1
        assert registry.stats["chunk_fetches"] == fetched
