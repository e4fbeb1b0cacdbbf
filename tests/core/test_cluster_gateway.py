"""End-to-end sweeps through the :class:`ClusterGateway`.

The contract under test is the one the resilience layer exists for:
**conservation** (every request finalizes exactly once — served,
degraded, or shed-with-record — under any fault geometry) and
**determinism** (a sweep is a pure function of (profiles, traffic,
seed, plan)).
"""

import pytest

from repro.core.cluster import ClusterGateway, TrafficSpec, build_fleet
from repro.core.runner import TrialPlan, TrialRunner, TrialSpec
from repro.errors import GatewayError
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import FaultContext, FaultPlan

AGGRESSIVE = "host-crash=0.9,zone-partition=0.8,degraded-host=0.8,collateral-outage=0.8,seed=3"


def sweep(requests=4000, rate_rps=2000.0, hosts=6, seed=0, faults=None,
          process="poisson", **gateway_kwargs):
    context = None if faults is None else FaultContext(faults, "cluster")
    gateway = ClusterGateway(build_fleet(hosts), seed=seed,
                             faults=context, **gateway_kwargs)
    report = gateway.run(TrafficSpec(process=process, requests=requests,
                                     rate_rps=rate_rps))
    return gateway, report


class TestConservation:
    def test_calm_sweep_conserves_and_serves(self):
        _, report = sweep(requests=2000, rate_rps=800.0)
        assert report.conserved
        assert report.requests == 2000
        assert report.served > 0.9 * report.requests

    @pytest.mark.parametrize("process", ["poisson", "diurnal", "burst"])
    def test_faulted_sweep_conserves(self, process):
        _, report = sweep(faults=FaultPlan.parse(AGGRESSIVE),
                          process=process)
        assert report.conserved
        assert report.faults_injected       # geometry actually landed

    def test_single_host_crash_flushes_everything(self):
        # the whole "fleet" dies mid-sweep: every request still ends
        # in a bucket (the probe machine flushes the queue as degraded)
        _, report = sweep(hosts=1, requests=1000, rate_rps=500.0,
                          faults=FaultPlan.parse("host-crash=1.0,seed=2"))
        assert report.conserved
        assert report.degraded > 0

    def test_overload_sheds_with_records(self):
        _, report = sweep(hosts=2, requests=3000, rate_rps=6000.0,
                          queue_cap=50)
        assert report.conserved
        assert report.shed > 0
        assert report.shed_records          # bounded sample, never empty
        for rid, hint in report.shed_records:
            assert hint > 0.0


class TestDeterminism:
    def test_same_seed_identical_report(self):
        _, a = sweep(faults=FaultPlan.parse(AGGRESSIVE))
        _, b = sweep(faults=FaultPlan.parse(AGGRESSIVE))
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_the_sweep(self):
        _, a = sweep(seed=0)
        _, b = sweep(seed=1)
        assert a.to_dict() != b.to_dict()

    def test_report_dict_is_sorted_and_json_safe(self):
        import json
        _, report = sweep(requests=500, rate_rps=500.0)
        payload = report.to_dict()
        assert list(payload) == sorted(payload)
        json.dumps(payload)     # no exotic types


class TestResilienceMachinery:
    def test_crash_detected_and_hedge_rescues_in_flight_work(self):
        # moderate crash pressure with spare capacity: the suspect
        # transition hedges the hung requests before dead-detection
        _, report = sweep(hosts=8, requests=12_000, rate_rps=600.0,
                          faults=FaultPlan.parse("host-crash=0.5,seed=3"))
        assert report.conserved
        assert report.health["died"] > 0
        assert report.health["probes_missed"] > 0
        assert report.hedges > 0

    def test_dead_detection_fails_over_unhedged_work(self):
        # same geometry at a rate where hedges cannot all land: the
        # DEAD transition re-places what is still stuck on the corpse
        _, report = sweep(hosts=8, requests=12_000, rate_rps=1000.0,
                          faults=FaultPlan.parse("host-crash=0.5,seed=3"))
        assert report.conserved
        assert report.failovers > 0

    def test_partition_delays_delivery_then_recovers(self):
        _, report = sweep(hosts=6, requests=8_000, rate_rps=1000.0,
                          faults=FaultPlan.parse(
                              "zone-partition=1.0,seed=5"))
        assert report.conserved
        assert report.partition_delayed > 0
        assert report.health["recovered"] > 0

    def test_retry_budget_bounds_spending(self):
        gateway, report = sweep(faults=FaultPlan.parse(AGGRESSIVE),
                                retry_floor=5, retry_ratio=0.0)
        assert report.retries_spent <= 5

    def test_warm_pool_amortizes_cold_boots(self):
        # at a rate the fleet absorbs comfortably, pools stay stocked
        # and warm starts dominate (higher rates churn 25 functions
        # through bounded pools and the warm share drops — by design)
        _, report = sweep(requests=4000, rate_rps=400.0)
        assert report.warm_starts > 2 * report.cold_boots

    def test_brownout_drops_telemetry_before_shedding(self):
        _, report = sweep(hosts=2, requests=4000, rate_rps=4000.0,
                          queue_cap=100)
        assert report.telemetry_dropped > 0
        transitions = report.brownout["transitions_drop_telemetry"]
        assert transitions > 0

    def test_fault_context_shares_injected_log(self):
        plan = FaultPlan.parse(AGGRESSIVE)
        context = FaultContext(plan, "trial-0")
        gateway = ClusterGateway(build_fleet(6), seed=0, faults=context)
        report = gateway.run(TrafficSpec(requests=1000, rate_rps=1000.0))
        assert context.injected == report.faults_injected
        assert all("@" in entry for entry in context.injected)


class TestGatewayLifecycle:
    def test_run_is_one_shot(self):
        gateway, _ = sweep(requests=100, rate_rps=1000.0)
        with pytest.raises(GatewayError):
            gateway.run(TrafficSpec(requests=100))

    def test_needs_at_least_one_host(self):
        with pytest.raises(GatewayError):
            ClusterGateway(())

    def test_emit_folds_into_metrics(self):
        _, report = sweep(requests=500, rate_rps=500.0)
        registry = MetricsRegistry()
        report.emit(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["cluster.requests"] == 500
        assert any(key.startswith("cluster.utilization.")
                   for key in snapshot["gauges"])


class TestClusterTrialBody:
    """The ``kind="cluster"`` body: ctx-derived seed and faults."""

    def spec(self, trial=0, requests=1500):
        return TrialSpec.make(
            kind="cluster", platform="tdx", secure=True,
            workload="poisson", trial=trial, seed=0,
            params={"hosts": 4, "requests": requests,
                    "rate_rps": 1000.0})

    def test_body_runs_and_conserves(self):
        results = TrialRunner().run(TrialPlan(specs=(self.spec(),)))
        output = results[0].output
        assert output["conserved"] is True
        assert output["requests"] == 1500

    def test_trials_decorrelated_but_reproducible(self):
        plan = TrialPlan(specs=(self.spec(0), self.spec(1)))
        first = TrialRunner().run(plan)
        second = TrialRunner().run(plan)
        assert first[0].to_dict() == second[0].to_dict()
        assert first[0].output != first[1].output

    def test_plan_faults_flow_into_the_sweep(self):
        plan = TrialPlan(specs=(self.spec(),)).with_faults(
            "host-crash=1.0,seed=4")
        results = TrialRunner().run(plan)
        assert results[0].output["conserved"] is True
        assert any(entry.startswith("host-crash@")
                   for entry in results[0].faults_injected)

    def test_serial_vs_parallel_bit_identical(self):
        import json
        plan = TrialPlan(specs=(self.spec(0), self.spec(1))).with_faults(
            "host-crash=0.5,zone-partition=0.5,seed=6")
        serial = TrialRunner().run(plan)
        parallel = TrialRunner(jobs=2).run(plan)
        assert (json.dumps([r.to_dict() for r in serial], sort_keys=True)
                == json.dumps([r.to_dict() for r in parallel],
                              sort_keys=True))
