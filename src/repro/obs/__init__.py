"""Observability: metrics, trace export, and virtual-time profiling.

The paper makes measurement a first-class concern (§III-B: ``perf
stat`` counters piggybacked onto every result, custom metric scripts
inside CCA realms), and this package is where the reproduction's four
measurement streams meet:

- :mod:`repro.obs.metrics` — a deterministic :class:`MetricsRegistry`
  (counters, gauges, virtual-time histograms on fixed log-scale
  buckets).  Layers below ``obs`` never import it: they keep plain
  counts, and their ``core`` caller folds them in, either by passing
  the registry to an ``emit(sink, prefix)`` hook or through
  ``fold_counters``.  ``core`` counts into it directly (gateway, pool,
  runner, journal).
- :mod:`repro.obs.export` — a :class:`TraceExporter` rendering
  :mod:`repro.sim.trace` span trees to Chrome trace-event JSON
  (loadable in ``chrome://tracing`` / Perfetto) and JSONL.
- :mod:`repro.obs.profile` — a virtual-time profiler folding span
  trees into flamegraph-style collapsed stacks and a per-CostCategory
  attribution table (the paper's bounce-buffer / TDVMCALL overhead
  analysis, automated).

Everything here is deterministic: given the same specs, serial and
parallel runs produce byte-identical snapshots, traces, and profiles.
"""

from repro.obs.export import TraceExporter
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import Profile, fold_stacks

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceExporter",
    "Profile",
    "fold_stacks",
]
