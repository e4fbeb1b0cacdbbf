"""Result records and ratio statistics.

The paper systematically reports the *ratio* of mean execution times
between secure and normal VMs over 10 independent trials; this module
provides the records the gateway returns and the aggregation helpers
the experiment harnesses use (means, percentile stacks, box-plot
five-number summaries).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

from repro.errors import GatewayError


@dataclass(frozen=True)
class InvocationRecord:
    """One function invocation's outcome, as returned to the user."""

    function: str
    language: str | None
    platform: str
    secure: bool
    trial: int
    elapsed_ns: float
    output: Any
    perf: dict[str, int]
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    transport_ns: float = 0.0   # Fig. 2 dispatch-path time (not in elapsed)
    #: failure-handling metadata; defaults describe a clean first-try
    #: run and are omitted from serialisation (byte-stable output)
    attempts: int = 1
    faults_injected: tuple[str, ...] = ()
    degraded: bool = False
    #: True when the gateway's admission control refused the trial
    #: before it ran (``attempts`` stays 0: nothing was attempted)
    shed: bool = False

    @classmethod
    def from_run(cls, run_result, function: str,
                 language: str | None, perf: dict[str, int],
                 transport_ns: float = 0.0) -> "InvocationRecord":
        return cls(
            function=function,
            language=language,
            platform=run_result.platform,
            secure=run_result.secure,
            trial=run_result.trial,
            elapsed_ns=run_result.elapsed_ns,
            output=run_result.output,
            perf=perf,
            cost_breakdown={
                category.value: nanos for category, nanos in run_result.ledger
            },
            transport_ns=transport_ns,
            attempts=getattr(run_result, "attempts", 1),
            faults_injected=tuple(getattr(run_result, "faults_injected", ())),
            degraded=getattr(run_result, "degraded", False),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (what the REST API returns)."""
        payload = {
            "function": self.function,
            "language": self.language,
            "platform": self.platform,
            "secure": self.secure,
            "trial": self.trial,
            "elapsed_ns": self.elapsed_ns,
            "output": self.output,
            "perf": self.perf,
            "cost_breakdown": self.cost_breakdown,
            "transport_ns": self.transport_ns,
        }
        if self.attempts != 1 or self.faults_injected or self.degraded:
            payload["attempts"] = self.attempts
            payload["faults_injected"] = list(self.faults_injected)
            payload["degraded"] = self.degraded
        if self.shed:
            payload["shed"] = True
        return payload


@dataclass(frozen=True)
class RatioSummary:
    """Secure-vs-normal comparison over matched trial sets."""

    secure_mean_ns: float
    normal_mean_ns: float
    ratio: float
    secure_times: tuple[float, ...]
    normal_times: tuple[float, ...]

    @property
    def overhead_percent(self) -> float:
        return (self.ratio - 1.0) * 100.0


def summarize_ratio(secure: list[InvocationRecord],
                    normal: list[InvocationRecord]) -> RatioSummary:
    """Mean-of-trials ratio, the paper's headline metric."""
    if not secure or not normal:
        raise GatewayError("need at least one trial on each side")
    secure_times = tuple(record.elapsed_ns for record in secure)
    normal_times = tuple(record.elapsed_ns for record in normal)
    secure_mean = statistics.fmean(secure_times)
    normal_mean = statistics.fmean(normal_times)
    if normal_mean <= 0:
        raise GatewayError("normal-VM mean time is not positive")
    return RatioSummary(
        secure_mean_ns=secure_mean,
        normal_mean_ns=normal_mean,
        ratio=secure_mean / normal_mean,
        secure_times=secure_times,
        normal_times=normal_times,
    )


def percentile(samples: list[float] | tuple[float, ...], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not samples:
        raise GatewayError("no samples")
    if not 0.0 <= q <= 100.0:
        raise GatewayError(f"percentile out of range: {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def percentile_stack(samples: list[float] | tuple[float, ...]) -> dict[str, float]:
    """The Fig. 3 stacked-percentile summary: min/p25/median/p95/max."""
    return {
        "min": percentile(samples, 0),
        "p25": percentile(samples, 25),
        "median": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "max": percentile(samples, 100),
    }


def five_number_summary(samples: list[float] | tuple[float, ...]) -> dict[str, float]:
    """The Fig. 8 box-and-whisker summary."""
    return {
        "whisker_low": percentile(samples, 0),
        "q1": percentile(samples, 25),
        "median": percentile(samples, 50),
        "q3": percentile(samples, 75),
        "whisker_high": percentile(samples, 100),
    }
