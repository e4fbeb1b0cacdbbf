"""Continuous performance monitoring (TEEMon-style).

§VI plans "integration to existing TEE monitoring libraries [35]"
(TEEMon, a *continuous* performance monitoring framework for TEEs).
This module provides that capability: a :class:`ContinuousMonitor`
attaches to an execution context and samples the live counters and
cost-ledger breakdown at a fixed virtual-time interval while the
workload runs, yielding a time series instead of a single end-of-run
figure — enough to see phase behaviour (e.g. iostress's bounce-buffer
bursts vs cpustress's flat profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MonitorError
from repro.guestos.context import ExecContext
from repro.sim.ledger import CostCategory


@dataclass(frozen=True)
class Sample:
    """One point in the monitored series (cumulative values)."""

    time_ns: float
    instructions: int
    cache_misses: int
    vm_transitions: int
    bounce_buffer_bytes: int
    context_switches: int
    cost_breakdown: dict[str, float]


@dataclass
class TimeSeries:
    """An ordered list of samples with analysis helpers."""

    interval_ns: float
    samples: list[Sample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def deltas(self, attribute: str) -> list[float]:
        """Per-interval increments of a cumulative counter."""
        values = [getattr(sample, attribute) for sample in self.samples]
        return [b - a for a, b in zip(values, values[1:])]

    def category_share(self, category: CostCategory,
                       exclude_startup: bool = True) -> list[float]:
        """Per-sample share of total cost in one category.

        ``exclude_startup`` nets out bootstrap charges, mirroring how
        the paper's measurements exclude launcher bootstrap.
        """
        startup_key = CostCategory.STARTUP.value
        shares = []
        for sample in self.samples:
            total = sum(
                nanos for key, nanos in sample.cost_breakdown.items()
                if not (exclude_startup and key == startup_key)
            )
            shares.append(
                sample.cost_breakdown.get(category.value, 0.0) / total
                if total > 0 else 0.0
            )
        return shares

    def sparkline(self, attribute: str, width: int = 40) -> str:
        """A terminal sparkline of per-interval increments."""
        ramp = " .:-=+*#%@"
        increments = self.deltas(attribute)
        if not increments:
            return ""
        if len(increments) > width:
            # downsample by averaging buckets
            bucket = len(increments) / width
            increments = [
                sum(increments[int(i * bucket):int((i + 1) * bucket)])
                / max(1, len(increments[int(i * bucket):int((i + 1) * bucket)]))
                for i in range(width)
            ]
        top = max(increments) or 1.0
        return "".join(
            ramp[min(len(ramp) - 1, int(value / top * (len(ramp) - 1)))]
            for value in increments
        )


class ContinuousMonitor:
    """Samples an execution context at a fixed virtual interval.

    Usage::

        monitor = ContinuousMonitor(interval_ns=1e6)   # 1 ms
        result = vm.run(monitor.wrap(body), name="iostress")
        series = monitor.series
    """

    def __init__(self, interval_ns: float = 1e6) -> None:
        if interval_ns <= 0:
            raise MonitorError(f"interval must be positive: {interval_ns}")
        self.interval_ns = interval_ns
        self.series = TimeSeries(interval_ns=interval_ns)
        self._next_sample_at = 0.0

    def _take_sample(self, ctx: ExecContext) -> None:
        counters = ctx.machine.counters
        self.series.samples.append(Sample(
            time_ns=ctx.clock.now(),
            instructions=counters.instructions,
            cache_misses=counters.cache_misses,
            vm_transitions=counters.vm_transitions,
            bounce_buffer_bytes=counters.bounce_buffer_bytes,
            context_switches=counters.context_switches,
            cost_breakdown={
                category.value: nanos for category, nanos in ctx.ledger
            },
        ))

    def _observer(self, ctx: ExecContext, category, charged_ns: float) -> None:
        while ctx.clock.now() >= self._next_sample_at:
            self._take_sample(ctx)
            self._next_sample_at += self.interval_ns

    def attach(self, ctx: ExecContext) -> None:
        """Install the sampling hook on a context."""
        if ctx.on_charge is not None:
            raise MonitorError("context already has a charge observer")
        self._next_sample_at = ctx.clock.now() + self.interval_ns
        ctx.on_charge = self._observer

    def wrap(self, body):
        """Wrap a VM-executable body so monitoring starts with it."""

        def monitored(kernel):
            self.attach(kernel.ctx)
            try:
                return body(kernel)
            finally:
                self._take_sample(kernel.ctx)   # final sample at the end

        return monitored
