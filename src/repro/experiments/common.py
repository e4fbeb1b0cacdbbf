"""Shared experiment plumbing.

The paper's constants (trial count, benched TEEs) and the aggregation
helpers the harnesses use on top of the unified trial pipeline
(:mod:`repro.core.runner`): pairing a plan's secure/normal sides into
matched cells and reducing a cell to its secure/normal ratio.
"""

from __future__ import annotations

import statistics

from repro.core.runner import TrialPlan, TrialRunner, TrialSpec
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


def completed(runner: TrialRunner,
              plan: TrialPlan) -> list[tuple[TrialSpec, RunResult]]:
    """Run a plan; the ``(spec, result)`` pairs that completed, in order.

    Every harness reads its results through here.  A degraded trial
    carries no measurement (``output`` is None, ``elapsed_ns`` is 0),
    so it is dropped; a cell left with no completed trial cannot be
    reported and raises a clean :class:`~repro.errors.GatewayError`
    naming its side, rather than a harness failing on a missing output.
    """
    pairs = list(zip(plan, runner.run(plan)))
    kept = [(spec, result) for spec, result in pairs if not result.degraded]
    lost = {spec.cell for spec, _ in pairs} - {spec.cell for spec, _ in kept}
    empty = [side for side, secure in (("secure", True), ("normal", False))
             if any(cell[3] == secure for cell in lost)]
    if empty:
        raise GatewayError(
            f"no completed trials on the {' or '.join(empty)} side of a "
            "cell (every attempt degraded — budget too tight or fault "
            "rates too high); cannot report that cell")
    return kept


def matched_cells(
    runner: TrialRunner,
    plan: TrialPlan,
) -> dict[tuple[str, str, str | None], dict[str, list[RunResult]]]:
    """Run a plan and pair up its secure/normal sides.

    Returns ``{(platform, workload, runtime): {"secure": [...],
    "normal": [...]}}`` with the :func:`completed` results in trial
    order — the shape every ratio-reporting harness aggregates from.
    """
    paired: dict[tuple, dict[str, list[RunResult]]] = {}
    for spec, result in completed(runner, plan):
        platform, workload, runtime, secure = spec.cell
        entry = paired.setdefault((platform, workload, runtime),
                                  {"secure": [], "normal": []})
        entry["secure" if secure else "normal"].append(result)
    return paired


def cell_ratio(sides: dict[str, list[RunResult]]) -> float:
    """Mean secure / mean normal elapsed time for one matched cell."""
    return (mean(r.elapsed_ns for r in sides["secure"])
            / mean(r.elapsed_ns for r in sides["normal"]))
