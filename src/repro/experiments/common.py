"""Shared experiment plumbing.

The paper's constants (trial count, benched TEEs) and the aggregation
helpers the harnesses use on top of the unified trial pipeline
(:mod:`repro.core.runner`): pairing a plan's secure/normal sides into
matched cells and reducing a cell to its secure/normal ratio.
"""

from __future__ import annotations

import statistics

from repro.core.runner import TrialPlan, TrialRunner
from repro.errors import GatewayError
from repro.tee.vm import RunResult

#: The paper's trial count (§IV-D: "10 independent trials").
PAPER_TRIALS = 10

#: The TEEs the paper benches.
HW_TEES = ("tdx", "sev-snp")
ALL_TEES = ("tdx", "sev-snp", "cca")


def mean(values) -> float:
    """Arithmetic mean of an iterable."""
    return statistics.fmean(values)


# -- runner-pipeline helpers ------------------------------------------------

def default_runner(runner: TrialRunner | None) -> TrialRunner:
    """The harnesses' runner default: serial, no journal.

    A journal attaches through ``TrialRunner(journal=...)``, so a
    harness given such a runner replays journaled trials and records
    the rest.
    """
    return runner if runner is not None else TrialRunner()


def matched_cells(
    runner: TrialRunner,
    plan: TrialPlan,
) -> dict[tuple[str, str, str | None], dict[str, list[RunResult]]]:
    """Run a plan and pair up its secure/normal sides.

    Returns ``{(platform, workload, runtime): {"secure": [...],
    "normal": [...]}}`` with results in trial order — the shape every
    ratio-reporting harness aggregates from.
    """
    paired: dict[tuple, dict[str, list[RunResult]]] = {}
    for cell, results in runner.run_cells(plan).items():
        platform, workload, runtime, secure = cell
        entry = paired.setdefault((platform, workload, runtime),
                                  {"secure": [], "normal": []})
        entry["secure" if secure else "normal"].extend(results)
    return paired


def cell_ratio(sides: dict[str, list[RunResult]]) -> float:
    """Mean secure / mean normal elapsed time for one matched cell.

    Degraded trials carry no measurement (``elapsed_ns`` is 0), so
    they are excluded from both means; a cell with no surviving trial
    on either side cannot produce a ratio and raises a clean
    :class:`~repro.errors.GatewayError` instead of dividing by zero.
    """
    usable = {side: [r for r in results if not r.degraded]
              for side, results in sides.items()}
    empty = [side for side in ("secure", "normal") if not usable[side]]
    if empty:
        raise GatewayError(
            f"no completed trials on the {' or '.join(empty)} side of a "
            "cell (every attempt degraded — budget too tight or fault "
            "rates too high); cannot compute a secure/normal ratio")
    return (mean(r.elapsed_ns for r in usable["secure"])
            / mean(r.elapsed_ns for r in usable["normal"]))
