"""Fig. 5 — attestation report creation and validation latencies.

Absolute wall-clock times (log-scale worthy) for:

- TDX "attest": TDREPORT via TDCALL + DCAP quote generation;
- TDX "check": go-tdx-guest-style verification, fetching TCB info and
  CRLs from the (simulated) Intel PCS over the network;
- SEV-SNP "attest": AMD-SP firmware report request + VCEK signature;
- SEV-SNP "check": snpguest's three-step local verification.

Shape targets: both SNP phases faster than their TDX counterparts;
the TDX check dominated by PCS round-trips.  CCA is excluded — the
FVP simulator lacks the attestation hardware (§IV-B).

Each trial runs through the unified pipeline with the attest and
check phases recorded as trace spans, so attestation network time
(the Intel PCS fetches) shows up in the same per-span ledger format
as every other experiment's phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import completed, default_runner, mean
from repro.experiments.report import render_log_bars
from repro.sim.ledger import CostCategory

#: platform -> the attestation trial flavor the body factory resolves.
_FLAVORS = {"tdx": "tdx-attestation", "sev-snp": "snp-attestation"}


@dataclass
class Fig5Result:
    """Mean attest/check latencies per platform."""

    #: e.g. {"tdx attest": ns, "tdx check": ns, ...}
    latencies_ns: dict[str, float] = field(default_factory=dict)
    #: share of the TDX check spent on network round-trips
    tdx_check_network_fraction: float = 0.0
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        bars = render_log_bars(
            "Fig. 5 — attestation: creation (attest) and validation "
            "(check) wall-clock time",
            self.latencies_ns,
        )
        return (
            f"{bars}\n\n  TDX check time spent in Intel PCS round-trips: "
            f"{self.tdx_check_network_fraction * 100:.1f}%"
        )


def run_fig5(seed: int = 0, trials: int = 5,
             runner: TrialRunner | None = None) -> Fig5Result:
    """Regenerate Fig. 5 (TDX and SEV-SNP only, as in the paper)."""
    runner = default_runner(runner)
    # Each platform attests through its own flavor, so the plan is a
    # concatenation of single-cell matrices rather than a cross
    # product.  Attestation has no "normal VM" baseline: secure only.
    specs = []
    for platform, flavor in _FLAVORS.items():
        specs.extend(TrialPlan.matrix(
            kind="attestation", platforms=(platform,), workloads=(flavor,),
            trials=trials, seed=seed, secure_modes=(True,),
            params={"infra_seed": seed},
        ).specs)
    plan = TrialPlan(specs=tuple(specs))
    attest: dict[str, list[float]] = {p: [] for p in _FLAVORS}
    check: dict[str, list[float]] = {p: [] for p in _FLAVORS}
    tdx_check_network: list[float] = []
    for _, result in completed(runner, plan):
        platform = result.platform
        attest_span = result.trace.find("attest")
        check_span = result.trace.find("check")
        attest[platform].append(attest_span.ledger_ns)
        check[platform].append(check_span.ledger_ns)
        if platform == "tdx":
            tdx_check_network.append(
                check_span.breakdown.get(CostCategory.NETWORK.value, 0.0))

    return Fig5Result(
        latencies_ns={
            "tdx attest": mean(attest["tdx"]),
            "tdx check": mean(check["tdx"]),
            "sev-snp attest": mean(attest["sev-snp"]),
            "sev-snp check": mean(check["sev-snp"]),
        },
        tdx_check_network_fraction=(
            mean(tdx_check_network) / mean(check["tdx"])),
        metrics=runner.metrics.snapshot(),
    )
