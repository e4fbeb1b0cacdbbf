"""Workload descriptors.

A :class:`FaasWorkload` is a named function body written against the
:class:`~repro.runtimes.base.RuntimeSession` API, so the same source
logic runs under every language runtime — the reproduction's analogue
of the paper "manually porting specific functions across languages,
maintaining as much as possible the original logic" (§IV-B).  Each
workload genuinely computes its result (tested for correctness) while
charging the cost model for the work implied.

Where that real work is plain host arithmetic, it lives in a pure
*kernel*: a function of the integer args returning only scalars,
memoized per process with :data:`KERNEL_CACHE_SIZE` entries.  Such a
workload computes its result once per process per args; charges every
trial — the body still runs on each trial and issues the same session
calls, in the same order, from the kernel's counts.  Only the host
computation is shared, never the simulated cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import WorkloadError
from repro.runtimes.base import RuntimeSession

#: Entries each kernel's ``functools.lru_cache`` keeps.  A sweep uses
#: one args set per function; the bound caps what ad-hoc args can pin.
KERNEL_CACHE_SIZE = 16


class WorkloadTrait(enum.Enum):
    """Dominant resource profile of a workload (used by analyses)."""

    CPU = "cpu"
    MEMORY = "memory"
    IO = "io"
    MIXED = "mixed"


@dataclass(frozen=True)
class FaasWorkload:
    """One FaaS benchmark function.

    Every arg is an integer.  ``min_args`` holds the smallest value an
    arg's kernel accepts; an arg not listed there must be ≥ 0.
    """

    name: str
    trait: WorkloadTrait
    description: str
    fn: Callable[[RuntimeSession, dict[str, Any]], Any]
    default_args: dict[str, Any] = field(default_factory=dict)
    origin: str = ""   # which public suite the paper drew it from
    min_args: dict[str, int] = field(default_factory=dict)

    def bind(self, args: dict[str, Any] | None = None) -> dict[str, int]:
        """Defaults merged under ``args``, checked against the domain.

        Raises
        ------
        WorkloadError
            If ``args`` is not a mapping, names an arg the workload
            does not take, or holds a non-integer (``bool`` included)
            or a value below the arg's minimum.
        """
        if args is not None and not isinstance(args, dict):
            raise WorkloadError(f"{self.name}: args must be a mapping")
        merged = dict(self.default_args)
        if args:
            unknown = sorted(set(args) - set(merged))
            if unknown:
                raise WorkloadError(
                    f"{self.name}: unknown arg(s) {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(merged)) or '(none)'}")
            merged.update(args)
        for name, value in merged.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise WorkloadError(
                    f"{self.name}: arg {name!r} must be an integer, "
                    f"got {value!r}")
            floor = self.min_args.get(name, 0)
            if value < floor:
                raise WorkloadError(
                    f"{self.name}: arg {name!r} must be >= {floor}, "
                    f"got {value}")
        return merged

    def run(self, session: RuntimeSession,
            args: dict[str, Any] | None = None) -> Any:
        """Execute the workload body with defaults merged under ``args``."""
        return self.fn(session, self.bind(args))
