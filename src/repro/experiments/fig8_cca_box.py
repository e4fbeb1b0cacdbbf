"""Fig. 8 — CCA execution-time distributions.

Box-and-whisker plots of secure *and* normal execution times per
function from the 10 independent runs.  Shape target: "with
confidential VMs, the length of the whiskers tends to be larger" —
more run-to-run variability inside realms (present but smaller on
TDX/SEV-SNP, whose plot the paper omits for space).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.results import five_number_summary
from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import (
    PAPER_TRIALS,
    default_runner,
    matched_cells,
    mean,
)
from repro.experiments.report import render_box_plots
from repro.workloads.faas.registry import FIGURE_WORKLOAD_NAMES

#: The figure shows one language's panel per function; python is the
#: densest panel in the paper's plot.
DEFAULT_LANGUAGE = "python"


@dataclass
class Fig8Result:
    """Per-function time samples for secure and normal CCA VMs."""

    language: str
    #: workload -> {"secure": [ns...], "normal": [ns...]}
    samples: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def summary(self, workload: str, kind: str) -> dict[str, float]:
        return five_number_summary(self.samples[workload][kind])

    def whisker_span(self, workload: str, kind: str) -> float:
        """Whisker length relative to the median (dimensionless)."""
        s = self.summary(workload, kind)
        return (s["whisker_high"] - s["whisker_low"]) / s["median"]

    def mean_whisker_span(self, kind: str) -> float:
        """Mean relative whisker span across functions."""
        return mean(self.whisker_span(w, kind) for w in self.samples)

    def render(self) -> str:
        sections = []
        for workload, series in self.samples.items():
            sections.append(render_box_plots(
                f"Fig. 8 — CCA {workload} ({self.language}): "
                "execution-time distribution",
                {
                    "secure": five_number_summary(series["secure"]),
                    "normal": five_number_summary(series["normal"]),
                },
            ))
        spans = (
            f"mean relative whisker span: secure "
            f"{self.mean_whisker_span('secure'):.2f} vs normal "
            f"{self.mean_whisker_span('normal'):.2f}"
        )
        return "\n\n".join(sections) + f"\n\n{spans}"


def run_fig8(
    seed: int = 0,
    workloads: tuple[str, ...] = FIGURE_WORKLOAD_NAMES,
    language: str = DEFAULT_LANGUAGE,
    trials: int = PAPER_TRIALS,
    runner: TrialRunner | None = None,
) -> Fig8Result:
    """Regenerate Fig. 8 (CCA distributions)."""
    runner = default_runner(runner)
    plan = TrialPlan.matrix(
        kind="faas",
        platforms=("cca",),
        workloads=workloads,
        runtimes=(language,),
        trials=trials,
        seed=seed,
    )
    result = Fig8Result(language=language)
    for (_, workload, _), sides in matched_cells(runner, plan).items():
        result.samples[workload] = {
            "secure": [r.elapsed_ns for r in sides["secure"]],
            "normal": [r.elapsed_ns for r in sides["normal"]],
        }
    result.metrics = runner.metrics.snapshot()
    return result
