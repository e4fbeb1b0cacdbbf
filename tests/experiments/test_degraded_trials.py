"""Harnesses end cleanly when trials come back degraded.

A trial that exhausts its attempts returns a degraded result with no
output.  Every harness reads its results through
``repro.experiments.common.completed``, so a cell side with no
completed trial raises a :class:`~repro.errors.GatewayError` naming
that side, and a partly degraded cell is reported from its surviving
trials.
"""

import pytest

from repro.core.runner import TrialRunner
from repro.errors import GatewayError
from repro.experiments import (
    run_dbms_table,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig5_service,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
)

SMALL = dict(workloads=("cpustress",), trials=1)

#: each harness entry point with inputs small enough for tier-1
HARNESSES = {
    "fig3": lambda runner: run_fig3(image_count=2, image_side=32,
                                    platforms=("tdx",), runner=runner),
    "fig4": lambda runner: run_fig4(platforms=("tdx",), trials=1,
                                    runner=runner),
    "fig5": lambda runner: run_fig5(trials=1, runner=runner),
    "fig5x": lambda runner: run_fig5_service(trials=1, runner=runner),
    "fig6": lambda runner: run_fig6(languages=("lua",), runner=runner,
                                    **SMALL),
    "fig7": lambda runner: run_fig7(languages=("lua",), runner=runner,
                                    **SMALL),
    "fig8": lambda runner: run_fig8(runner=runner, **SMALL),
    "fig9": lambda runner: run_fig9(hosts=2, requests=500, rate_rps=400.0,
                                    runner=runner),
    "fig10": lambda runner: run_fig10(vms=2, accesses=2, runner=runner),
    "dbms": lambda runner: run_dbms_table(size=5, platforms=("tdx",),
                                          trials=1, runner=runner),
}


@pytest.mark.parametrize("figure", sorted(HARNESSES))
def test_every_trial_degraded_raises_a_clean_error(figure):
    # a 1 ns budget kills every attempt, so no trial completes
    runner = TrialRunner(budget_ns=1.0)
    with pytest.raises(GatewayError, match="no completed trials on the"):
        HARNESSES[figure](runner)


def test_partly_degraded_cell_is_reported_from_its_survivors():
    runner = TrialRunner(faults="vm-crash=0.6,seed=1")
    result = run_fig4(platforms=("tdx",), trials=3, runner=runner)
    degraded = [r for _, results in runner.history for r in results
                if r.degraded]
    assert degraded, "the plan should lose at least one trial"
    assert result.index_ratios["tdx"] > 0
