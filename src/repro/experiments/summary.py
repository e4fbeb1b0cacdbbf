"""Whole-evaluation summary: every artifact in one report.

The artifact-evaluation entry point: regenerates each paper artifact
(optionally at reduced scale) and emits one combined report plus a
machine-readable shape check — the quick way to confirm the
reproduction's findings hold on a new machine or seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialRunner
from repro.experiments.common import default_runner
from repro.experiments.dbms_table import run_dbms_table
from repro.experiments.fig3_ml import run_fig3
from repro.experiments.fig4_unixbench import run_fig4
from repro.experiments.fig5_attestation import run_fig5
from repro.experiments.fig6_heatmap import run_fig6
from repro.experiments.fig7_cca_heatmap import run_fig7
from repro.experiments.fig8_cca_box import run_fig8
from repro.experiments.report import render_table


@dataclass
class ShapeCheck:
    """One paper finding and whether the regenerated data shows it."""

    artifact: str
    finding: str
    holds: bool
    detail: str


@dataclass
class EvaluationSummary:
    """All artifacts plus their shape checks."""

    renders: dict[str, str] = field(default_factory=dict)
    checks: list[ShapeCheck] = field(default_factory=list)
    #: the shared runner's metrics snapshot across every artifact
    metrics: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)

    def render(self, include_artifacts: bool = False) -> str:
        rows = [
            [check.artifact, check.finding,
             "yes" if check.holds else "NO", check.detail]
            for check in self.checks
        ]
        table = render_table(
            "ConfBench reproduction — paper findings vs regenerated data",
            ["artifact", "finding", "holds", "measured"],
            rows,
        )
        if not include_artifacts:
            return table
        sections = [table]
        for name, text in self.renders.items():
            sections.append(f"\n{'=' * 72}\n{text}")
        return "\n".join(sections)


def run_evaluation(seed: int = 1, quick: bool = True,
                   runner: TrialRunner | None = None) -> EvaluationSummary:
    """Regenerate every artifact and check the paper's findings.

    ``quick`` shrinks grids/trials for an interactive run; the full
    configuration matches the benches.  ``runner`` is shared by every
    artifact, so a parallel or caching runner accelerates all of them.
    """
    runner = default_runner(runner)
    summary = EvaluationSummary()

    fig3 = run_fig3(seed=seed, image_count=12 if quick else 40,
                    image_side=128 if quick else 296,
                    trials=2 if quick else 3, runner=runner)
    summary.renders["fig3"] = fig3.render()
    cca_ml = fig3.mean_ratio("cca")
    summary.checks.append(ShapeCheck(
        "Fig. 3", "TDX/SEV near-native, CCA worst (<= ~1.5x)",
        holds=(fig3.mean_ratio("tdx") < 1.15
               and fig3.mean_ratio("sev-snp") < 1.15
               and 1.1 < cca_ml < 1.6),
        detail=(f"tdx {fig3.mean_ratio('tdx'):.2f} "
                f"sev {fig3.mean_ratio('sev-snp'):.2f} cca {cca_ml:.2f}"),
    ))

    dbms = run_dbms_table(seed=seed, size=20 if quick else 100,
                          trials=2 if quick else 3, runner=runner)
    summary.renders["dbms"] = dbms.render()
    summary.checks.append(ShapeCheck(
        "DBMS", "TDX/SEV ~= 1; CCA largest (avg up to ~10x)",
        holds=(dbms.average_ratio("tdx") < 1.25
               and dbms.average_ratio("sev-snp") < 1.25
               and dbms.average_ratio("cca") > 3.0),
        detail=(f"avg tdx {dbms.average_ratio('tdx'):.2f} "
                f"sev {dbms.average_ratio('sev-snp'):.2f} "
                f"cca {dbms.average_ratio('cca'):.2f}"),
    ))

    fig4 = run_fig4(seed=seed, trials=4 if quick else 6,
                    scale=0.25 if quick else 0.3, runner=runner)
    summary.renders["fig4"] = fig4.render()
    # TDX least, "SEV-SNP leads to analogous figures" — allow the
    # near-tie the paper itself describes; CCA must be far worse.
    tdx_r, sev_r = fig4.index_ratios["tdx"], fig4.index_ratios["sev-snp"]
    cca_r = fig4.index_ratios["cca"]
    ordered = (tdx_r < sev_r + 0.03
               and cca_r > 2.0 * max(tdx_r, sev_r)
               and tdx_r > 1.1)
    summary.checks.append(ShapeCheck(
        "Fig. 4", "UnixBench: TDX <= SEV (analogous) << CCA",
        holds=ordered,
        detail=" ".join(f"{name} {ratio:.2f}"
                        for name, ratio in fig4.index_ratios.items()),
    ))

    fig5 = run_fig5(seed=seed, trials=3 if quick else 10, runner=runner)
    summary.renders["fig5"] = fig5.render()
    lat = fig5.latencies_ns
    summary.checks.append(ShapeCheck(
        "Fig. 5", "SNP attest+check both >=10x faster than TDX",
        holds=(lat["sev-snp attest"] * 10 < lat["tdx attest"]
               and lat["sev-snp check"] * 10 < lat["tdx check"]),
        detail=(f"tdx {lat['tdx attest'] / 1e6:.0f}/{lat['tdx check'] / 1e6:.0f} ms, "
                f"snp {lat['sev-snp attest'] / 1e6:.1f}/"
                f"{lat['sev-snp check'] / 1e6:.1f} ms"),
    ))

    small_workloads = ("cpustress", "factors", "memstress", "iostress",
                       "logging", "filesystem")
    small_langs = ("python", "ruby", "lua", "go")
    fig6 = run_fig6(seed=seed,
                    workloads=small_workloads if quick else
                    __import__("repro.workloads.faas.registry",
                               fromlist=["FIGURE_WORKLOAD_NAMES"]
                               ).FIGURE_WORKLOAD_NAMES,
                    languages=small_langs if quick else
                    __import__("repro.runtimes.registry",
                               fromlist=["RUNTIME_NAMES"]).RUNTIME_NAMES,
                    trials=4 if quick else 10, runner=runner)
    summary.renders["fig6"] = fig6.render()
    io_cross = (fig6.ratio("sev-snp", "lua", "iostress")
                < fig6.ratio("tdx", "lua", "iostress"))
    cpu_cross = (fig6.ratio("tdx", "lua", "cpustress")
                 < fig6.ratio("sev-snp", "lua", "cpustress"))
    summary.checks.append(ShapeCheck(
        "Fig. 6", "TDX wins cpu, SEV wins io",
        holds=io_cross and cpu_cross,
        detail=(f"cpu tdx {fig6.ratio('tdx', 'lua', 'cpustress'):.2f} vs "
                f"sev {fig6.ratio('sev-snp', 'lua', 'cpustress'):.2f}; "
                f"io tdx {fig6.ratio('tdx', 'lua', 'iostress'):.2f} vs "
                f"sev {fig6.ratio('sev-snp', 'lua', 'iostress'):.2f}"),
    ))

    fig7 = run_fig7(seed=seed, workloads=small_workloads,
                    languages=small_langs, trials=4 if quick else 10,
                    runner=runner)
    summary.renders["fig7"] = fig7.render()
    import statistics

    cca_mean = statistics.fmean(fig7.grids["cca"].values())
    hw_mean = statistics.fmean(fig6.grids["tdx"].values())
    summary.checks.append(ShapeCheck(
        "Fig. 7", "CCA ratios much higher than hardware TEEs",
        holds=cca_mean > 1.5 * hw_mean,
        detail=f"cca mean {cca_mean:.2f} vs tdx mean {hw_mean:.2f}",
    ))

    fig8 = run_fig8(seed=seed, workloads=small_workloads,
                    trials=8 if quick else 10, runner=runner)
    summary.renders["fig8"] = fig8.render()
    summary.checks.append(ShapeCheck(
        "Fig. 8", "secure whiskers longer than normal",
        holds=(fig8.mean_whisker_span("secure")
               > fig8.mean_whisker_span("normal")),
        detail=(f"secure {fig8.mean_whisker_span('secure'):.2f} vs "
                f"normal {fig8.mean_whisker_span('normal'):.2f}"),
    ))

    summary.metrics = runner.metrics.snapshot()
    return summary
