"""Bench E7 — Fig. 8: CCA execution-time distributions.

Box-and-whisker data for all 25 functions (python panel), secure and
normal, 10 independent runs each.

Shape assertions:
- secure-realm whiskers are longer (more run-to-run variability);
- the same holds in aggregate against a TDX baseline re-run (the
  paper notes the effect exists on TDX/SEV but to a lesser extent);
- box summaries are well-formed.
"""

from repro.core.runner import TrialPlan, TrialRunner
from repro.experiments import run_fig8
from repro.experiments.common import PAPER_TRIALS, matched_cells
from repro.experiments.fig8_cca_box import Fig8Result


def _tdx_whisker_span(workloads, trials=PAPER_TRIALS) -> float:
    """Mean relative whisker span of secure TDX runs (comparison)."""
    plan = TrialPlan.matrix(kind="faas", platforms=("tdx",),
                            workloads=workloads, runtimes=("python",),
                            trials=trials, seed=1, secure_modes=(True,))
    result = Fig8Result(language="python")
    for (_, workload, _), sides in matched_cells(TrialRunner(), plan).items():
        result.samples[workload] = {
            "secure": [run.elapsed_ns for run in sides["secure"]]}
    return result.mean_whisker_span("secure")


def test_fig8_cca_box(regenerate):
    result = regenerate(run_fig8, seed=1, trials=10)

    # "with confidential VMs, the length of the whiskers tends to be
    # larger"
    secure_span = result.mean_whisker_span("secure")
    normal_span = result.mean_whisker_span("normal")
    assert secure_span > normal_span

    # the variability exists on TDX too, "but to a lesser extent"
    tdx_span = _tdx_whisker_span(tuple(result.samples)[:8])
    assert secure_span > tdx_span

    # box summaries are ordered for every function and both VM kinds
    for workload in result.samples:
        for kind in ("secure", "normal"):
            s = result.summary(workload, kind)
            assert (s["whisker_low"] <= s["q1"] <= s["median"]
                    <= s["q3"] <= s["whisker_high"]), (workload, kind)

    # all 25 paper workloads covered
    assert len(result.samples) == 25
