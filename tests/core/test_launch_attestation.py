"""Launch attestation wired into the pools and the gateway.

With a :class:`~repro.attest.service.LaunchAttestor` attached to a
secure pool, each worker attests before its first dispatch; the
attestation latency lands in the serving result's STARTUP bucket
(``total_ns``, never ``elapsed_ns``), and a respawned worker resumes
its predecessor's session instead of re-paying the full flow.
"""

import json
from pathlib import Path

from repro.attest import LaunchAttestor
from repro.core.config import GatewayConfig, PlatformEntry, default_config
from repro.core.gateway import Gateway, InvocationRequest
from repro.core.pool import TeePool
from repro.obs.metrics import MetricsRegistry
from repro.sim.ledger import CostCategory
from repro.tee.registry import platform_by_name


def boot_vm(platform):
    vm = platform.create_vm()
    vm.boot()
    return vm


def make_pool(workers=2, attestor=None, metrics=None, secure=True):
    platform = platform_by_name("tdx", seed=2)
    pool = TeePool(platform="tdx", secure=secure)
    for i in range(workers):
        vm = platform.create_vm()
        vm.boot()
        pool.add_worker(vm, 9100 + i)
    pool.attestor = attestor
    if metrics is not None:
        pool.metrics = metrics
    return pool


class TestPoolAdmission:
    def test_first_dispatch_attests_and_charges_startup(self):
        metrics = MetricsRegistry()
        pool = make_pool(attestor=LaunchAttestor("tdx", seed=1),
                         metrics=metrics)
        result = pool.run_resilient(lambda k: "ok", name="x", trial=0)
        assert result.output == "ok"
        assert pool.workers[0].attested
        # admission cost: STARTUP only, elapsed untouched
        assert result.ledger.get(CostCategory.STARTUP) > 0
        assert result.total_ns > result.elapsed_ns
        snap = metrics.snapshot()
        assert snap["counters"]["pool.tdx.secure.attested"] == 1

    def test_admission_happens_once_per_worker(self):
        # a plain run already charges STARTUP (runtime bootstrap), so
        # compare trial-by-trial against a no-attestor baseline: only
        # the first dispatch carries the admission surcharge
        baseline = make_pool(workers=1)
        base = [baseline.run_resilient(lambda k: 1, name="x", trial=t)
                for t in range(2)]
        pool = make_pool(workers=1, attestor=LaunchAttestor("tdx", seed=1))
        first = pool.run_resilient(lambda k: 1, name="x", trial=0)
        second = pool.run_resilient(lambda k: 1, name="x", trial=1)
        startup = CostCategory.STARTUP
        assert first.ledger.get(startup) > base[0].ledger.get(startup)
        assert second.ledger.get(startup) == base[1].ledger.get(startup)
        assert pool.attestor.service.stats["launches"] == 1

    def test_respawned_worker_resumes_session(self):
        metrics = MetricsRegistry()
        platform = platform_by_name("tdx", seed=2)
        pool = make_pool(workers=1, attestor=LaunchAttestor("tdx", seed=1),
                         metrics=metrics)
        pool.respawn = lambda worker: pool.add_worker(
            boot_vm(platform), worker.port)
        pool.run_resilient(lambda k: 1, name="x", trial=0)
        pool.workers[0].vm.destroy()
        result = pool.run_resilient(lambda k: 2, name="x", trial=1)
        assert result.output == 2
        # same port slot -> same measurement -> session resumption
        snap = metrics.snapshot()
        assert snap["counters"]["pool.tdx.secure.attested"] == 2
        assert snap["counters"]["pool.tdx.secure.attest_resumed"] == 1
        assert pool.attestor.service.stats["resumed"] == 1

    def test_no_attestor_leaves_runs_identical(self):
        plain = make_pool(workers=1).run_resilient(
            lambda k: 1, name="x", trial=0)
        pool = make_pool(workers=1)
        pool.attestor = None
        wired = pool.run_resilient(lambda k: 1, name="x", trial=0)
        assert not pool.workers[0].attested
        assert wired.total_ns == plain.total_ns
        assert (wired.ledger.get(CostCategory.STARTUP)
                == plain.ledger.get(CostCategory.STARTUP))

    def test_normal_pool_never_attests(self):
        pool = make_pool(workers=1, secure=False,
                         attestor=LaunchAttestor("tdx", seed=1))
        pool.run_resilient(lambda k: 1, name="x", trial=0)
        assert not pool.workers[0].attested
        assert pool.attestor.service.stats["launches"] == 0


class TestGatewayAttestation:
    def test_opt_in_builds_attestors_for_supported_platforms(self):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="xeon", base_port=9100,
                          vm_count=2),
            PlatformEntry(platform="sev-snp", host="epyc", base_port=9200,
                          vm_count=2),
        ], default_trials=1)
        gateway = Gateway(config, attest_launches=True)
        assert set(gateway.attestors) == {"tdx", "sev-snp"}
        assert gateway.pools[("tdx", True)].attestor is not None
        assert gateway.pools[("tdx", False)].attestor is None

    def test_invocation_records_attestation_metrics(self):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="xeon", base_port=9100,
                          vm_count=2),
        ], default_trials=1)
        gateway = Gateway(config, attest_launches=True)
        gateway.upload("factors")
        records = gateway.invoke(InvocationRequest(
            function="factors", language="lua", platform="tdx", trials=1))
        assert len(records) == 1
        counters = gateway.metrics.snapshot()["counters"]
        assert counters["pool.tdx.secure.attested"] == 1
        assert counters["attest.service.tdx.launches"] == 1
        assert counters["attest.service.tdx.tier.origin"] == 1

    def test_default_gateway_unchanged(self):
        gateway = Gateway()
        assert gateway.attestors == {}
        assert all(pool.attestor is None for pool in gateway.pools.values())


GOLDEN = (Path(__file__).resolve().parents[1] / "goldens"
          / "gateway_attest_metrics.json")


def gateway_attest_session() -> str:
    """``/v1/metrics`` and ``/v1/stats`` after one faulted session.

    Crashes force evictions, respawns and resumed re-attestation on
    both attesting platforms, so every ``pool.*`` and
    ``attest.service.*`` counter the gateway serves is exercised.
    """
    gateway = Gateway(default_config(seed=0), attest_launches=True,
                      faults="vm-crash=0.6,seed=4")
    gateway.upload("cpustress")
    for platform in ("tdx", "sev-snp"):
        for secure in (True, False):
            gateway.invoke(InvocationRequest(
                function="cpustress", language="lua", platform=platform,
                secure=secure, trials=3))
    payload = {"metrics": json.loads(gateway.metrics.to_json()),
               "stats": gateway.stats()}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class TestGatewayAttestGolden:
    def test_session_reproduces_byte_for_byte(self):
        assert gateway_attest_session() == GOLDEN.read_text(encoding="utf-8")
