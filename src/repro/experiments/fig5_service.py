"""Fig. 5 extension — attestation latency vs collateral cache tier.

The paper measures *one* launch's attest/check cost; this extension
asks what a fleet pays.  Each trial drives the verifier service
(:mod:`repro.attest.service`) through three launch waves across two
hosts sharing a cluster CDN tier, so every collateral path gets
exercised:

- ``origin``  — first launch ever: four WAN fetches from the PCS;
- ``host``    — same host relaunches: collateral one IPC hop away;
- ``cdn``     — a cold host behind a warm cluster cache: LAN hops;
- ``session`` — a returning tenant resumes its attestation session,
  skipping quote generation and verification entirely;
- ``local``   — SEV-SNP's full verification (no network to tier).

Shape targets: origin ≫ cdn > host ≫ session for TDX, and the
cache-tier counters must reconcile exactly with the PCS request log
(every clean log entry is an origin fetch, nothing more).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import default_runner, mean
from repro.experiments.report import render_log_bars

#: platform -> the service trial flavor the body factory resolves.
_FLAVORS = {"tdx": "tdx-attestation", "sev-snp": "snp-attestation"}


@dataclass
class Fig5ServiceResult:
    """Per-platform, per-tier verification latencies plus counters."""

    #: e.g. {"tdx origin": ns, "tdx host": ns, "tdx session": ns, ...}
    tier_latencies_ns: dict[str, float] = field(default_factory=dict)
    #: summed service/session/collateral counters across trials
    counters: dict[str, int] = field(default_factory=dict)
    #: True iff, in every trial, origin fetches == clean request_log
    #: entries (the obs counters and the PCS log tell the same story)
    reconciled: bool = True
    #: peak verification backlog observed across all trials
    queue_depth_peak: int = 0
    #: mean queue wait per platform
    queue_wait_ns: dict[str, float] = field(default_factory=dict)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        bars = render_log_bars(
            "Fig. 5 ext — attestation verification time by collateral "
            "cache tier",
            self.tier_latencies_ns,
        )
        reconciliation = (
            "origin fetches reconcile with the PCS request log"
            if self.reconciled
            else "RECONCILIATION FAILED: counters disagree with request log"
        )
        return (
            f"{bars}\n\n  peak verification backlog: "
            f"{self.queue_depth_peak}\n  {reconciliation}"
        )


def run_fig5_service(seed: int = 0, trials: int = 3,
                     runner: TrialRunner | None = None) -> Fig5ServiceResult:
    """Run the fleet-attestation scenario on TDX and SEV-SNP.

    Trial bodies return plain per-tier data plus the service
    components' ``stats`` dicts, folded into one counter dict (the
    verifier service lives below ``obs``, and worker processes cannot
    share a live registry); this harness folds those counters into the
    runner's metrics registry in spec order, so serial and parallel
    sweeps produce byte-identical snapshots.
    """
    runner = default_runner(runner)
    specs = []
    for platform, flavor in _FLAVORS.items():
        specs.extend(TrialPlan.matrix(
            kind="attestation-service", platforms=(platform,),
            workloads=(flavor,), trials=trials, seed=seed,
            secure_modes=(True,), params={"infra_seed": seed},
        ).specs)
    plan = TrialPlan(specs=tuple(specs))

    tier_samples: dict[str, list[float]] = {}
    wait_samples: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    reconciled = True
    queue_depth_peak = 0
    for result in runner.run(plan):
        platform = result.platform
        output = result.output
        for tier, values in output["tiers"].items():
            tier_samples.setdefault(f"{platform} {tier}", []).extend(values)
            for value in values:
                runner.metrics.observe(
                    f"attest.service.{platform}.verify_ns.{tier}", value)
        wait_samples.setdefault(platform, []).extend(output["queue_wait_ns"])
        for name, value in output["counters"].items():
            key = f"{platform}.{name}"
            counters[key] = counters.get(key, 0) + value
            runner.metrics.count(f"attest.service.{key}", value)
        reconciled = reconciled and output["reconciled"]
        queue_depth_peak = max(queue_depth_peak, output["queue_depth_peak"])
    runner.metrics.set_gauge("attest.service.queue_depth_peak",
                             queue_depth_peak)
    runner.metrics.count("attest.service.reconciled", int(reconciled))

    return Fig5ServiceResult(
        tier_latencies_ns={
            label: mean(values)
            for label, values in sorted(tier_samples.items())
        },
        counters=dict(sorted(counters.items())),
        reconciled=reconciled,
        queue_depth_peak=queue_depth_peak,
        queue_wait_ns={
            platform: mean(values)
            for platform, values in sorted(wait_samples.items())
        },
        metrics=runner.metrics.snapshot(),
    )
