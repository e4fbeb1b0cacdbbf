"""Fig. 4 — UnixBench benchmarks.

Single-threaded UnixBench in secure and normal VMs, "normalized as
ratios" of the index scores.  Shape targets: TDX introduces the least
overhead, SEV-SNP analogous figures, CCA the most; all larger than
the ML/DBMS overheads (frequent TDVMCALL/VMEXIT from sleep/wake-ups).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import ALL_TEES, default_runner, matched_cells, mean
from repro.experiments.report import render_ratio_bars, render_table


@dataclass
class Fig4Result:
    """Index ratios per platform, plus per-test detail."""

    #: platform -> normal_index / secure_index (>1 = secure slower)
    index_ratios: dict[str, float] = field(default_factory=dict)
    #: platform -> {test key -> time ratio secure/normal}
    test_ratios: dict[str, dict[str, float]] = field(default_factory=dict)
    #: platform -> mean vm transitions per secure run
    transitions: dict[str, float] = field(default_factory=dict)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        bars = render_ratio_bars(
            "Fig. 4 — UnixBench: normal/secure aggregate index ratios",
            self.index_ratios,
        )
        platforms = list(self.test_ratios)
        test_keys = sorted(next(iter(self.test_ratios.values())))
        rows = [
            [key, *(f"{self.test_ratios[p][key]:.2f}" for p in platforms)]
            for key in test_keys
        ]
        detail = render_table(
            "Per-test secure/normal time ratios",
            ["test", *platforms],
            rows,
        )
        return f"{bars}\n\n{detail}"


def run_fig4(
    seed: int = 0,
    platforms: tuple[str, ...] = ALL_TEES,
    trials: int = 5,
    scale: float = 0.3,
    runner: TrialRunner | None = None,
) -> Fig4Result:
    """Regenerate Fig. 4."""
    runner = default_runner(runner)
    plan = TrialPlan.matrix(
        kind="unixbench",
        platforms=platforms,
        workloads=("unixbench",),
        trials=trials,
        seed=seed,
        params={"scale": scale},
    )
    result = Fig4Result()
    for (platform, _, _), sides in matched_cells(runner, plan).items():
        secure_runs, normal_runs = sides["secure"], sides["normal"]
        secure_index = mean(r.output["index"] for r in secure_runs)
        normal_index = mean(r.output["index"] for r in normal_runs)
        result.index_ratios[platform] = normal_index / secure_index
        test_keys = secure_runs[0].output["tests"].keys()
        result.test_ratios[platform] = {
            key: (mean(r.output["tests"][key] for r in secure_runs)
                  / mean(r.output["tests"][key] for r in normal_runs))
            for key in test_keys
        }
        result.transitions[platform] = mean(
            r.counters.vm_transitions for r in secure_runs
        )
    result.metrics = runner.metrics.snapshot()
    return result
