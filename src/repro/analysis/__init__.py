"""Static analysis enforcing the simulation contract (``confbench lint``).

The reproduction's load-bearing property is determinism: every trial is
a pure function of its :class:`~repro.core.runner.TrialSpec`, and the
layer DAG in ``DESIGN.md`` keeps lower substrates ignorant of the
orchestration above them.  Nothing in Python stops a contributor from
calling ``time.time()`` inside a workload or importing ``repro.core``
from ``repro.hw`` — one such slip silently turns bit-identical trials
into flaky fig3–fig8 regressions.  This package catches that class of
bug at lint time with six AST-based passes:

- :mod:`repro.analysis.determinism` — flags wall-clock and entropy
  escapes (``time.time``, ``datetime.now``, module-level ``random.*``,
  ``os.urandom``, ``uuid.uuid4``, ``secrets.*``), raw iteration over
  sets, and ``id()``-based sort keys.
- :mod:`repro.analysis.layering` — rebuilds the module import graph
  and enforces the DESIGN.md layer DAG, reporting the offending
  import chain.
- :mod:`repro.analysis.purity` — walks the call graph from the trial
  pipeline's entry points (``execute_trial``, body factories) and
  flags mutation of module-level state inside reachable functions.
- :mod:`repro.analysis.hotpath` — flags per-op charge loops inside
  ``repro.tee`` / ``repro.guestos`` / ``repro.runtimes``, where the
  batched op-stream kernel should be folding charges into one ledger
  merge.
- :mod:`repro.analysis.taint` — interprocedural forward taint on the
  :mod:`repro.analysis.dataflow` call graph: key material and guest
  plaintext must not reach relay sends, REST bodies, journal records,
  telemetry, logs, or exception messages un-digested.
- :mod:`repro.analysis.concurrency` — lock discipline for the
  threaded modules: attributes written under ``with self._lock:`` are
  guarded, unguarded access and ABBA acquisition orders are findings.

The purity and taint passes share one :mod:`repro.analysis.dataflow`
symbol index per run (:attr:`Project.index`, built on first use);
:mod:`repro.analysis.cache` keys results by content hashes, per file
for the per-file passes and per tree for the cross-module ones, so a
warm lint run over an unchanged tree analyzes nothing.

Findings can be suppressed inline with ``# confbench: allow[<rule>]``
pragmas (:mod:`repro.analysis.pragmas`) or grandfathered in a committed
baseline file (:mod:`repro.analysis.baseline`).  The package is
deliberately self-contained tooling: it imports nothing from the
simulation layers (only ``repro.errors``), so it can lint a broken
tree without importing it.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.cache import AnalysisCache
from repro.analysis.concurrency import LockDisciplineRule
from repro.analysis.core import (
    AnalysisError,
    Finding,
    Project,
    Rule,
    Severity,
    SourceModule,
)
from repro.analysis.determinism import DeterminismRule
from repro.analysis.engine import (
    PASS_SCHEMA,
    RULE_REGISTRY,
    LintReport,
    default_rules,
    run_lint,
)
from repro.analysis.hotpath import HotPathRule
from repro.analysis.layering import LAYERS, LayeringRule
from repro.analysis.purity import TrialPurityRule
from repro.analysis.taint import ConfidentialTaintRule, TaintSpec

__all__ = [
    "AnalysisCache",
    "AnalysisError",
    "Baseline",
    "ConfidentialTaintRule",
    "DeterminismRule",
    "Finding",
    "HotPathRule",
    "LAYERS",
    "LayeringRule",
    "LintReport",
    "LockDisciplineRule",
    "PASS_SCHEMA",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "Severity",
    "SourceModule",
    "TaintSpec",
    "TrialPurityRule",
    "default_rules",
    "run_lint",
]
