"""Fig. 9 extension — cluster resilience under open-loop overload.

The paper benchmarks one CVM on one host; this extension asks what a
*fleet* of them does when the failures the paper's infrastructure can
suffer (host loss, zone partitions, degraded silicon, collateral
outages) land mid-traffic.  Each trial drives one
:class:`repro.core.cluster.ClusterGateway` sweep — a heterogeneous
multi-zone fleet, seeded open-loop arrivals over the 25-function FaaS
mix — under a default cluster fault plan (override with ``--faults``),
and reports the resilience headline numbers:

- tail latency (p50/p99/p999) per arrival process;
- shed rate and the brownout ladder's time-at-level split;
- failover + hedge counts and retry-budget spend;
- per-zone utilization (does zone-spread actually spread?).

The conservation contract is asserted per trial: every one of the
sweep's requests must finalize as served, degraded, or shed-with-
record — a silently dropped request fails the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import completed, default_runner, mean
from repro.experiments.report import render_table

#: the arrival processes each sweep covers (one spec per process)
ARRIVAL_PROCESSES = ("poisson", "diurnal", "burst")

#: the fault weather a resilience experiment defaults to; the runner's
#: ``--faults`` plan (when given) replaces it wholesale
DEFAULT_FIG9_FAULTS = ("host-crash=0.35,zone-partition=0.3,"
                       "degraded-host=0.4,collateral-outage=0.3,seed=9")


@dataclass
class Fig9ClusterResult:
    """Per-process resilience numbers plus fleet-wide aggregates."""

    #: process -> the trial-meaned report fields the table renders
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    #: zone -> mean utilization across all trials
    zone_utilization: dict[str, float] = field(default_factory=dict)
    #: summed across every trial
    failovers: int = 0
    hedges: int = 0
    retries_spent: int = 0
    telemetry_dropped: int = 0
    #: True iff every trial's sweep conserved its requests
    conserved: bool = True
    #: "kind@point" fault injections, in spec order then schedule order
    faults_injected: list = field(default_factory=list)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        headers = ("process", "served", "shed%", "p50 ms", "p99 ms",
                   "p999 ms", "failover", "hedge")
        rows = []
        for process, row in self.rows.items():
            rows.append((
                process,
                int(row["served"]),
                f"{row['shed_rate'] * 100:.1f}",
                f"{row['p50_ns'] / 1e6:.1f}",
                f"{row['p99_ns'] / 1e6:.1f}",
                f"{row['p999_ns'] / 1e6:.1f}",
                int(row["failovers"]),
                int(row["hedges"]),
            ))
        table = render_table(
            "Fig. 9 ext — cluster resilience under open-loop overload",
            headers, rows)
        zones = "  ".join(f"{zone}={value * 100:.0f}%"
                          for zone, value in self.zone_utilization.items())
        conservation = (
            "every request finalized (served/degraded/shed-with-record)"
            if self.conserved
            else "CONSERVATION FAILED: requests were silently dropped")
        return (f"{table}\n\n  zone utilization: {zones}\n"
                f"  retry budget spent: {self.retries_spent} "
                f"(failovers {self.failovers}, hedges {self.hedges})\n"
                f"  {conservation}")


def run_fig9(seed: int = 0, trials: int = 1, hosts: int = 8,
             requests: int = 120_000, rate_rps: float = 2400.0,
             processes: tuple = ARRIVAL_PROCESSES,
             runner: TrialRunner | None = None) -> Fig9ClusterResult:
    """Run the cluster resilience sweep, one spec per arrival process.

    Trial bodies return the sweep's full :class:`ClusterReport` dict
    (the gateway lives below ``obs`` and workers cannot share a live
    registry); this harness folds the counters into the runner's
    metrics registry in spec order, so serial and parallel sweeps
    produce byte-identical snapshots.  The default cluster fault plan
    rides on the specs; a runner-level ``--faults`` plan overrides it.
    """
    runner = default_runner(runner)
    plan = TrialPlan.matrix(
        kind="cluster", platforms=("tdx",), workloads=tuple(processes),
        trials=trials, seed=seed, secure_modes=(True,),
        params={"hosts": hosts, "requests": requests,
                "rate_rps": rate_rps},
    ).with_faults(DEFAULT_FIG9_FAULTS)

    per_process: dict[str, list[dict]] = {}
    zone_samples: dict[str, list[float]] = {}
    result = Fig9ClusterResult()
    for _, trial_result in completed(runner, plan):
        output = trial_result.output
        process = trial_result.workload
        per_process.setdefault(process, []).append(output)
        if not output["conserved"]:
            result.conserved = False
        result.failovers += output["failovers"]
        result.hedges += output["hedges"]
        result.retries_spent += output["retries_spent"]
        result.telemetry_dropped += output["telemetry_dropped"]
        result.faults_injected.extend(output["faults_injected"])
        for zone, value in output["zone_utilization"].items():
            zone_samples.setdefault(zone, []).append(value)
        prefix = f"cluster.{process}"
        runner.metrics.count_many((
            (f"{prefix}.requests", output["requests"]),
            (f"{prefix}.served", output["served"]),
            (f"{prefix}.degraded", output["degraded"]),
            (f"{prefix}.shed", output["shed"]),
            (f"{prefix}.failovers", output["failovers"]),
            (f"{prefix}.hedges", output["hedges"]),
            (f"{prefix}.cold_boots", output["cold_boots"]),
            (f"{prefix}.warm_starts", output["warm_starts"]),
        ))
        runner.metrics.observe(f"{prefix}.latency_p99_ns",
                               output["latency_p99_ns"])
        for zone, value in sorted(output["zone_utilization"].items()):
            runner.metrics.set_gauge(f"{prefix}.utilization.{zone}", value)
    runner.metrics.count("cluster.conserved", int(result.conserved))

    for process in processes:
        outputs = per_process[process]
        result.rows[process] = {
            "served": mean(o["served"] for o in outputs),
            "shed_rate": mean(o["shed"] / o["requests"] for o in outputs),
            "p50_ns": mean(o["latency_p50_ns"] for o in outputs),
            "p99_ns": mean(o["latency_p99_ns"] for o in outputs),
            "p999_ns": mean(o["latency_p999_ns"] for o in outputs),
            "failovers": sum(o["failovers"] for o in outputs),
            "hedges": sum(o["hedges"] for o in outputs),
        }
    result.zone_utilization = {
        zone: mean(values) for zone, values in sorted(zone_samples.items())
    }
    result.metrics = runner.metrics.snapshot()
    return result
