"""Fig. 7 — CCA FaaS heatmap.

The same 25 x 7 grid as Fig. 6, but for realms inside the FVP
simulator: both the secure realm and the normal VM run under the
simulation layer, so the ratio isolates realm mechanisms.  Shape
target: ratios higher overall than TDX/SEV-SNP ("more lighter
blue/red-ish cells").
"""

from __future__ import annotations

from repro.core.runner import TrialRunner
from repro.experiments.common import PAPER_TRIALS
from repro.experiments.fig6_heatmap import HeatmapResult, run_heatmap
from repro.runtimes.registry import RUNTIME_NAMES
from repro.workloads.faas.registry import FIGURE_WORKLOAD_NAMES


def run_fig7(
    seed: int = 0,
    workloads: tuple[str, ...] = FIGURE_WORKLOAD_NAMES,
    languages: tuple[str, ...] = RUNTIME_NAMES,
    trials: int = PAPER_TRIALS,
    runner: TrialRunner | None = None,
) -> HeatmapResult:
    """Regenerate Fig. 7 (CCA only)."""
    return run_heatmap(("cca",), seed=seed, workloads=workloads,
                       languages=languages, trials=trials, runner=runner)
