"""The Fig. 9 cluster extension: one trial is one fleet sweep."""

from __future__ import annotations

from typing import Callable

from repro.core.runner import TrialSpec, body_factory
from repro.sim.ledger import CostCategory
from repro.sim.rng import derive_seed


@body_factory("cluster")
def _cluster_body(spec: TrialSpec) -> Callable:
    """A whole fleet's open-loop sweep (the Fig. 9 cluster extension).

    One trial runs one :class:`repro.core.cluster.ClusterGateway`
    sweep: a deterministic heterogeneous fleet, seeded open-loop
    traffic using ``spec.workload`` as the arrival-process name
    (``poisson``/``diurnal``/``burst``), cluster-scale faults from the
    trial's own fault context, and the conservation contract that
    every request finalizes as served, degraded, or shed-with-record.

    The factory is memoized without trial/seed/faults, so everything
    per-trial comes from ``kernel.ctx``: the sweep seed derives from
    the trial's RNG stream and the fault schedule from ``ctx.faults``
    (whose injection log flows into ``RunResult.faults_injected``).
    The sweep's virtual makespan is charged to the trial clock, so a
    trial's elapsed time *is* the cluster's wall time.
    """
    from repro.core.cluster import ClusterGateway, TrafficSpec, build_fleet

    params = spec.params
    profiles = build_fleet(params.get("hosts", 8),
                           seed=params.get("fleet_seed", 0))
    traffic = TrafficSpec(
        process=spec.workload,
        requests=params.get("requests", 100_000),
        rate_rps=params.get("rate_rps", 3200.0),
        secure_fraction=params.get("secure_fraction", 0.75),
    )

    def body(kernel):
        ctx = kernel.ctx
        sweep_seed = derive_seed(ctx.rng.seed, f"{ctx.rng.label}/cluster")
        gateway = ClusterGateway(profiles, seed=sweep_seed,
                                 faults=ctx.faults)
        report = gateway.run(traffic)
        ctx.charge(CostCategory.CPU, report.makespan_ns)
        return report.to_dict()

    return body
