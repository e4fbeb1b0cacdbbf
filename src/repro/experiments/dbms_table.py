"""§IV-C Confidential DBMS — the speedtest findings table.

The paper describes (without a figure, "we omit detailed plots for
space") running the SQLite speedtest suite at the default relative
size 100 and comparing per-test execution times.  Findings to
reproduce: TDX and SEV-SNP ratios "very similar and close to 1";
CCA's overhead "the largest ones, on average up to 10x".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments.common import ALL_TEES, default_runner, matched_cells, mean
from repro.experiments.report import render_table
from repro.workloads.dbms.speedtest import DEFAULT_SIZE


@dataclass
class DbmsTableResult:
    """Per-platform, per-test secure/normal ratios."""

    size: int
    test_names: dict[int, str] = field(default_factory=dict)
    #: platform -> {test_id -> ratio}
    ratios: dict[str, dict[int, float]] = field(default_factory=dict)
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def average_ratio(self, platform: str) -> float:
        return mean(self.ratios[platform].values())

    def max_ratio(self, platform: str) -> float:
        return max(self.ratios[platform].values())

    def render(self) -> str:
        platforms = list(self.ratios)
        rows = []
        for test_id in sorted(self.test_names):
            rows.append([
                test_id,
                self.test_names[test_id],
                *(f"{self.ratios[p][test_id]:.2f}" for p in platforms),
            ])
        rows.append([
            "", "AVERAGE",
            *(f"{self.average_ratio(p):.2f}" for p in platforms),
        ])
        return render_table(
            f"Confidential DBMS: speedtest secure/normal time ratios "
            f"(relative size {self.size})",
            ["test", "description", *platforms],
            rows,
        )


def run_dbms_table(
    seed: int = 0,
    size: int = DEFAULT_SIZE,
    platforms: tuple[str, ...] = ALL_TEES,
    trials: int = 3,
    runner: TrialRunner | None = None,
) -> DbmsTableResult:
    """Regenerate the DBMS findings.

    ``size`` is speedtest1's relative test size (paper default 100).
    """
    runner = default_runner(runner)
    plan = TrialPlan.matrix(
        kind="speedtest",
        platforms=platforms,
        workloads=("speedtest",),
        trials=trials,
        seed=seed,
        params={"size": size},
    )
    result = DbmsTableResult(size=size)
    for (platform, _, _), sides in matched_cells(runner, plan).items():
        secure_acc: dict[int, list[float]] = {}
        normal_acc: dict[int, list[float]] = {}
        for run in sides["secure"]:
            for test_id, name, elapsed in run.output:
                result.test_names[test_id] = name
                secure_acc.setdefault(test_id, []).append(elapsed)
        for run in sides["normal"]:
            for test_id, _, elapsed in run.output:
                normal_acc.setdefault(test_id, []).append(elapsed)
        result.ratios[platform] = {
            test_id: mean(secure_acc[test_id]) / mean(normal_acc[test_id])
            for test_id in secure_acc
        }
    result.metrics = runner.metrics.snapshot()
    return result
