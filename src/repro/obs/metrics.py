"""Deterministic metrics: counters, gauges, log-bucket histograms.

One :class:`MetricsRegistry` aggregates everything a run observes —
trial counts, journal replays, pool evictions, per-category ledger
nanoseconds, perf-counter totals, and virtual-time distributions.

Determinism contract
--------------------
Snapshots must be *byte-identical* between serial and parallel runs of
the same plan, so:

- histogram bucket boundaries are fixed at import time (log-scale,
  :data:`BUCKETS_PER_DECADE` per decade from 1 ns to 1e12 ns) rather
  than adapted to the data;
- instrumented call sites observe values in **spec order** (the
  runner folds results in after execution, not from completion-order
  callbacks), so floating-point sums accumulate in one fixed order;
- :meth:`MetricsRegistry.snapshot` sorts metric names and
  :meth:`MetricsRegistry.to_json` serialises with sorted keys and
  fixed separators.

Lower layers
------------
Lower layers (``hw``, ``sim``, ``tee``) must not import this package
(it sits above them in the layer DAG).  They keep plain counts, and
``core`` folds them in: a run's ``emit(sink, prefix)`` hook takes the
registry as an argument and calls its :meth:`~MetricsRegistry.count`,
:meth:`~MetricsRegistry.count_many` and
:meth:`~MetricsRegistry.observe`.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ConfBenchError

#: Histogram resolution: bucket boundaries per decade of nanoseconds.
BUCKETS_PER_DECADE = 3

#: Decades covered: 1 ns .. 1e12 ns (~16.7 virtual minutes).
_DECADES = 12

#: The fixed, shared bucket upper bounds (ns), plus +inf overflow.
BUCKET_BOUNDS_NS: tuple[float, ...] = tuple(
    10.0 ** (k / BUCKETS_PER_DECADE)
    for k in range(_DECADES * BUCKETS_PER_DECADE + 1)
) + (float("inf"),)


def _bound_label(bound: float) -> str:
    """A stable, compact label for one bucket upper bound."""
    if bound == float("inf"):
        return "+inf"
    return f"{bound:.6g}"


_BOUND_LABELS: tuple[str, ...] = tuple(
    _bound_label(bound) for bound in BUCKET_BOUNDS_NS
)


@dataclass
class Counter:
    """A monotonically increasing sum (int or float)."""

    name: str
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if not amount >= 0:
            raise ConfBenchError(
                f"counter {self.name!r}: cannot add {amount!r}")
        self.value += amount


@dataclass
class Gauge:
    """A last-value-wins measurement."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Sample distribution over the fixed log-scale buckets.

    Bucket boundaries are shared by every histogram
    (:data:`BUCKET_BOUNDS_NS`), so two runs observing the same samples
    in the same order produce identical counts and sums — the property
    the serial-vs-parallel byte-identity check rests on.
    """

    name: str
    count: int = 0
    sum: float = 0.0
    bucket_counts: list[int] = field(
        default_factory=lambda: [0] * len(BUCKET_BOUNDS_NS))

    def observe(self, value: float) -> None:
        """Record one sample (negative samples are a modelling bug)."""
        if not value >= 0:
            raise ConfBenchError(
                f"histogram {self.name!r}: cannot observe {value!r}")
        self.count += 1
        self.sum += float(value)
        self.bucket_counts[bisect_left(BUCKET_BOUNDS_NS, value)] += 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form; only non-empty buckets are serialised."""
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                _BOUND_LABELS[index]: bucket
                for index, bucket in enumerate(self.bucket_counts)
                if bucket
            },
        }


class MetricsRegistry:
    """The aggregation point for every measurement stream.

    Update methods (:meth:`count`, :meth:`count_many`,
    :meth:`set_gauge`, :meth:`observe`), get-or-create accessors and
    deterministic serialisation.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def counter_value(self, name: str) -> float:
        """The named counter's value, 0 when absent (creates nothing)."""
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # -- updates -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Add to the named counter (creating it at 0)."""
        self.counter(name).inc(amount)

    def count_many(self, pairs: "Iterable[tuple[str, float]]") -> None:
        """Add to many counters in one call (coalesced emission).

        Equivalent to calling :meth:`count` per pair — same counters,
        same totals, same snapshot bytes — but a batched result's
        ledger/perf emission pays one dispatch instead of one per
        metric.  The ledger and perf-counter ``emit`` hooks call it.
        """
        counters = self._counters
        for name, amount in pairs:
            metric = counters.get(name)
            if metric is None:
                metric = counters[name] = Counter(name)
            metric.inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample in the named histogram."""
        self.histogram(name).observe(value)

    # -- serialisation -------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one JSON-able dict, names sorted.

        This is what ``GET /v1/metrics`` returns and what every
        experiment harness attaches to its result.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        """Canonical JSON encoding of :meth:`snapshot`.

        Sorted keys and fixed separators: two registries holding the
        same metrics serialise to identical bytes, which is what the
        CI determinism job compares.
        """
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def render_text(self) -> str:
        """A human-readable dump (the ``confbench`` CLI's format)."""
        snap = self.snapshot()
        lines: list[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"counter   {name} = {value:g}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge     {name} = {value:g}")
        for name, histogram in snap["histograms"].items():
            lines.append(f"histogram {name}: count={histogram['count']} "
                         f"sum={histogram['sum']:g}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")
