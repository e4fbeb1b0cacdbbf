"""Fig. 6 — TDX and SEV-SNP FaaS heatmaps.

"Ratios between mean execution times from secure and normal VMs for
functions in different languages", 25 workloads x 7 languages, 10
independent trials, darker = better.  Shape targets: TDX faster with
CPU/memory-intensive workloads, SEV-SNP faster with I/O; heavier
managed runtimes (Python, Node, Ruby) run hotter than Lua / LuaJIT /
Go / Wasm; a few cells dip below 1 (cache-hit effects).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import (
    HW_TEES,
    PAPER_TRIALS,
    cell_ratio,
    default_runner,
    matched_cells,
    mean,
)
from repro.experiments.report import render_heatmap
from repro.runtimes.registry import RUNTIME_NAMES
from repro.workloads.base import WorkloadTrait
from repro.workloads.faas.registry import FIGURE_WORKLOAD_NAMES, workload_by_name

#: Heatmap row/column orders as in the figure.
HEAVY_LANGS = ("python", "node", "ruby")
LIGHT_LANGS = ("lua", "luajit", "go", "wasm")


@dataclass
class HeatmapResult:
    """FaaS ratio grids, one per platform."""

    workloads: tuple[str, ...]
    languages: tuple[str, ...]
    #: platform -> {(language, workload) -> ratio}
    grids: dict[str, dict[tuple[str, str], float]] = field(default_factory=dict)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def ratio(self, platform: str, language: str, workload: str) -> float:
        return self.grids[platform][(language, workload)]

    def language_mean(self, platform: str, language: str) -> float:
        """Mean ratio across all workloads for one language row."""
        grid = self.grids[platform]
        return mean(grid[(language, w)] for w in self.workloads)

    def trait_mean(self, platform: str, trait: WorkloadTrait) -> float:
        """Mean ratio across workloads with the given trait."""
        grid = self.grids[platform]
        names = [w for w in self.workloads
                 if workload_by_name(w).trait is trait]
        return mean(
            grid[(lang, w)] for lang in self.languages for w in names
        )

    def cells_below_one(self, platform: str) -> int:
        """How many cells show secure faster than normal."""
        return sum(1 for ratio in self.grids[platform].values() if ratio < 1.0)

    def render(self) -> str:
        sections = []
        for platform, grid in self.grids.items():
            sections.append(render_heatmap(
                f"Fig. 6 — {platform}: secure/normal mean-time ratios "
                f"(darker = more overhead)",
                rows=list(self.languages),
                cols=list(self.workloads),
                values=grid,
            ))
        return "\n\n".join(sections)


def run_heatmap(
    platforms: tuple[str, ...],
    seed: int = 0,
    workloads: tuple[str, ...] = FIGURE_WORKLOAD_NAMES,
    languages: tuple[str, ...] = RUNTIME_NAMES,
    trials: int = PAPER_TRIALS,
    runner: TrialRunner | None = None,
) -> HeatmapResult:
    """Build the ratio grid for the given platforms."""
    runner = default_runner(runner)
    plan = TrialPlan.matrix(
        kind="faas",
        platforms=platforms,
        workloads=workloads,
        runtimes=languages,
        trials=trials,
        seed=seed,
    )
    cells = matched_cells(runner, plan)
    result = HeatmapResult(workloads=tuple(workloads),
                           languages=tuple(languages))
    for platform in platforms:
        result.grids[platform] = {
            (language, workload):
                cell_ratio(cells[(platform, workload, language)])
            for language in languages
            for workload in workloads
        }
    result.metrics = runner.metrics.snapshot()
    return result


def run_fig6(
    seed: int = 0,
    workloads: tuple[str, ...] = FIGURE_WORKLOAD_NAMES,
    languages: tuple[str, ...] = RUNTIME_NAMES,
    trials: int = PAPER_TRIALS,
    runner: TrialRunner | None = None,
) -> HeatmapResult:
    """Regenerate Fig. 6 (the two hardware TEEs)."""
    return run_heatmap(HW_TEES, seed=seed, workloads=workloads,
                       languages=languages, trials=trials, runner=runner)
