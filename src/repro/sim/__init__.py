"""Deterministic simulation kernel.

This package provides the foundation every other layer builds on:

- :mod:`repro.sim.clock` — a virtual monotonic clock measured in
  nanoseconds, advanced explicitly by cost models.
- :mod:`repro.sim.ledger` — a cost ledger that attributes advanced time
  to categories (cpu, memory, io, vm exits, ...), so experiments can
  explain *where* overhead comes from.
- :mod:`repro.sim.rng` — seeded random streams with the distributions
  used for realistic jitter (lognormal multiplicative noise).
- :mod:`repro.sim.events` — the bare-tuple event queue that serves the
  cluster engine only; per-trial runs advance their clock directly.
- :mod:`repro.sim.trace` — structured span traces recording each
  run's phases (boot/launch/execute/...) with virtual timestamps and
  per-span ledger deltas.
- :mod:`repro.sim.faults` — seeded fault injection (:class:`FaultPlan`)
  with the same label-derived substream scheme as the jitter streams,
  plus the one retry rule (:class:`Retries`, :data:`MAX_ATTEMPTS`,
  :func:`backoff_ns`) and the :class:`FailureLog` the failure-handling
  layers build on.

All timing in the reproduction is virtual: for a fixed seed, every
experiment is reproducible bit-for-bit while still exhibiting realistic
percentile spreads.
"""

from repro.sim.clock import VirtualClock
from repro.sim.faults import (
    FailureLog,
    FaultContext,
    FaultKind,
    FaultPlan,
    Retries,
)
from repro.sim.ledger import CostCategory, CostLedger
from repro.sim.rng import SimRng
from repro.sim.trace import Span, Trace

__all__ = [
    "VirtualClock",
    "CostCategory",
    "CostLedger",
    "SimRng",
    "Span",
    "Trace",
    "FaultKind",
    "FaultPlan",
    "FaultContext",
    "Retries",
    "FailureLog",
]
