"""Cluster-layer acceptance: the PR's headline contract at scale.

One seeded open-loop sweep of one million virtual-time requests
across an eight-host, three-zone fleet with injected ``host-crash``
and ``zone-partition`` faults must complete with **zero silently
dropped requests** — every request ends served, degraded, or
shed-with-record — and the whole run must be **byte-identical**
between serial and two-worker execution.

The million requests are split across four trial specs (one per
arrival-process/seed pairing) so the parallel leg actually
distributes work; conservation is asserted per spec and in aggregate.
The same contract then holds for a 128-host fleet under the same
fault weather, where placement scans only the nodes with free cores.
"""

from __future__ import annotations

import json

from repro.core.runner import TrialPlan, TrialRunner, TrialSpec

FAULTS = "host-crash=0.5,zone-partition=0.5,seed=11"

#: 4 specs x 250k requests = 1M open-loop arrivals
REQUESTS_PER_SPEC = 250_000
SPECS = (
    ("poisson", 0),
    ("poisson", 1),
    ("diurnal", 0),
    ("burst", 0),
)


def build_plan(specs=SPECS, hosts: int = 8,
               requests: int = REQUESTS_PER_SPEC,
               rate_rps: float = 2_000.0) -> TrialPlan:
    return TrialPlan(specs=tuple(
        TrialSpec.make(
            kind="cluster", platform="tdx", secure=True, workload=process,
            trial=trial, seed=0,
            params={"hosts": hosts, "requests": requests,
                    "rate_rps": rate_rps},
        )
        for process, trial in specs
    )).with_faults(FAULTS)


class TestMillionRequestAcceptance:
    def test_zero_silent_drops_and_serial_parallel_identity(self):
        plan = build_plan()

        serial = TrialRunner().run(plan)
        total = {"requests": 0, "served": 0, "degraded": 0, "shed": 0}
        for result in serial:
            output = result.output
            # per-sweep conservation: nothing silently dropped
            assert output["conserved"] is True
            assert output["requests"] == (output["served"]
                                          + output["degraded"]
                                          + output["shed"])
            # every shed kept a record with a usable retry hint
            if output["shed"]:
                assert output["shed_records"]
                assert all(hint > 0.0
                           for _rid, hint in output["shed_records"])
            # the fault geometry really landed on this sweep
            kinds = {entry.split("@")[0]
                     for entry in output["faults_injected"]}
            assert kinds <= {"host-crash", "zone-partition"}
            for key in total:
                total[key] += output[key]

        assert total["requests"] == len(SPECS) * REQUESTS_PER_SPEC
        assert total["requests"] == (total["served"] + total["degraded"]
                                     + total["shed"])
        # the sweep is a resilience test, not a wipeout: the fleet
        # keeps serving through the faults
        assert total["served"] > 0.5 * total["requests"]
        # and the faults were not a no-op across the whole run
        assert any(r.output["faults_injected"] for r in serial)

        parallel = TrialRunner(jobs=2).run(plan)
        assert (json.dumps([r.to_dict() for r in serial], sort_keys=True)
                == json.dumps([r.to_dict() for r in parallel],
                              sort_keys=True))


class TestLargeFleetAcceptance:
    """250k requests over 128 hosts: two specs, so ``-j 2`` splits them."""

    def test_conserved_and_serial_parallel_identity(self):
        plan = build_plan(specs=(("poisson", 0), ("diurnal", 0)),
                          hosts=128, requests=125_000, rate_rps=16_000.0)

        serial = TrialRunner().run(plan)
        served = 0
        for result in serial:
            output = result.output
            assert output["conserved"] is True
            assert output["requests"] == 125_000
            assert output["requests"] == (output["served"]
                                          + output["degraded"]
                                          + output["shed"])
            served += output["served"]
        assert served > 0.5 * 250_000
        assert all(r.output["faults_injected"] for r in serial)

        parallel = TrialRunner(jobs=2).run(plan)
        assert (json.dumps([r.to_dict() for r in serial], sort_keys=True)
                == json.dumps([r.to_dict() for r in parallel],
                              sort_keys=True))
