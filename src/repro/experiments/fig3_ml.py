"""Fig. 3 — Confidential ML workloads.

"Distribution (as stacked percentiles) of the observed inference
times" for MobileNet classifying 40 one-megabyte images, secure vs.
normal, on TDX / SEV-SNP / CCA.  Shape targets: TDX and SEV-SNP very
similar with a limited TDX advantage and close-to-native speed; CCA
up to ~1.33x slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.results import percentile_stack
from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import ALL_TEES, default_runner, matched_cells, mean
from repro.experiments.report import render_percentile_stacks

#: The paper's dataset: 40 diversified 1 MB images.
PAPER_IMAGE_COUNT = 40


@dataclass
class Fig3Result:
    """Per-platform secure/normal inference-time distributions."""

    image_count: int
    #: platform -> {"secure": [ns...], "normal": [ns...]}
    times: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def stack(self, platform: str, kind: str) -> dict[str, float]:
        """min/p25/median/p95/max for one series."""
        return percentile_stack(self.times[platform][kind])

    def mean_ratio(self, platform: str) -> float:
        """Mean secure / mean normal inference time."""
        series = self.times[platform]
        return mean(series["secure"]) / mean(series["normal"])

    def render(self) -> str:
        stacks = {}
        for platform in self.times:
            stacks[f"{platform} secure"] = self.stack(platform, "secure")
            stacks[f"{platform} normal"] = self.stack(platform, "normal")
        body = render_percentile_stacks(
            "Fig. 3 — Confidential ML: distribution of inference times "
            f"({self.image_count} x ~1 MB images)",
            stacks,
        )
        ratios = "\n".join(
            f"  {platform}: mean secure/normal ratio = "
            f"{self.mean_ratio(platform):.3f}"
            for platform in self.times
        )
        return f"{body}\n\n{ratios}"


def run_fig3(
    seed: int = 0,
    image_count: int = PAPER_IMAGE_COUNT,
    image_side: int = 296,
    platforms: tuple[str, ...] = ALL_TEES,
    trials: int = 1,
    runner: TrialRunner | None = None,
) -> Fig3Result:
    """Regenerate Fig. 3.

    ``image_side`` defaults to a reduced resolution so the real numpy
    forward passes stay fast; the *count* and the cost accounting are
    faithful.  ``trials`` repeats the whole dataset pass.
    """
    runner = default_runner(runner)
    plan = TrialPlan.matrix(
        kind="ml",
        platforms=platforms,
        workloads=("ml",),
        trials=trials,
        seed=seed,
        params={"model_seed": seed, "dataset_seed": seed,
                "count": image_count, "side": image_side},
    )
    result = Fig3Result(image_count=image_count)
    for (platform, _, _), sides in matched_cells(runner, plan).items():
        result.times[platform] = {
            "secure": [ns for run in sides["secure"] for ns in run.output],
            "normal": [ns for run in sides["normal"] for ns in run.output],
        }
    result.metrics = runner.metrics.snapshot()
    return result
